/** SSE4.2 instantiation of the abea band kernel. */
#define GB_SIMD_TARGET_SSE4 1
#include "simd/abea_engine_impl.h"

#include "simd/engines_internal.h"

namespace gb::simd::detail {

void
abeaBandSse4(const AbeaBand& band)
{
    abeaBandVec(band);
}

} // namespace gb::simd::detail
