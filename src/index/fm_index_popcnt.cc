/**
 * @file
 * The SMEM search compiled with -mpopcnt: smems(..., NullProbe&)
 * dispatches here at the sse4/avx2 levels, so every occ lookup counts
 * with the POPCNT instruction instead of libgcc's __popcountdi2.
 *
 * The instantiation runs on PopcntProbe, a NullProbe of internal
 * linkage, so FmIndex::smems<PopcntProbe> and every member template it
 * calls are local to this file, as the *_engine_impl.h kernels are:
 * the linker cannot fold them into the generic NullProbe copies.
 */
#include "index/fm_index.h"

namespace gb {

namespace {

struct PopcntProbe : NullProbe
{
};

} // namespace

void
FmIndex::smemsPopcnt(std::span<const u8> query, i32 min_len,
                     std::vector<Smem>& out) const
{
    PopcntProbe probe;
    smems<PopcntProbe>(query, min_len, out, probe);
}

} // namespace gb
