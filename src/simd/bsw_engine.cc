/**
 * @file
 * Dispatch layer for the SIMD banded-SW engines, both picking the
 * widest kernel the CPU (and GB_SIMD_LEVEL) allows:
 *
 *  - bswAlign(), the inter-sequence engine: batches pairs lane-wide and
 *    routes anything the 16-bit lanes cannot represent exactly
 *    (overlong sequences, global mode) to the scalar kernel;
 *  - gb::bandedSw(), the intra-pair row engine for one pair (i32 lanes,
 *    local and global mode, any length).
 *
 * Results are always bit-identical to bandedSwScalar().
 */
#include "simd/bsw_engine.h"

#include <algorithm>

#include "simd/engines_internal.h"

namespace gb::simd {

namespace {

using BatchFn = void (*)(const SwPair*, u32, const SwParams&, SwResult*,
                         BatchSwStats*);

/** Scalar "batch": one bandedSwScalar() call per lane. */
void
bswBatchScalar(const SwPair* pairs, u32 count, const SwParams& p,
               SwResult* out, BatchSwStats* stats)
{
    for (u32 l = 0; l < count; ++l) {
        NullProbe probe;
        out[l] = bandedSwScalar(pairs[l].query, pairs[l].target, p,
                                probe);
        if (stats) {
            // One lane per slot: no lockstep overwork.
            stats->vector_slots += out[l].cell_updates;
            stats->useful_cells += out[l].cell_updates;
        }
    }
}

struct Engine
{
    BatchFn fn;
    u32 lanes;
};

/** Function-pointer table indexed by SimdLevel. */
Engine
engineFor(SimdLevel level)
{
    switch (level) {
#if GB_SIMD_HAVE_X86
      case SimdLevel::kAvx2: return {detail::bswBatchAvx2, 16};
      case SimdLevel::kSse4: return {detail::bswBatchSse4, 8};
#else
      case SimdLevel::kAvx2:
      case SimdLevel::kSse4:
#endif
      case SimdLevel::kScalar: break;
    }
    return {bswBatchScalar, 1};
}

bool
simdRepresentable(const SwPair& pair)
{
    return pair.query.size() <= static_cast<size_t>(kBswMaxSimdLen) &&
           pair.target.size() <= static_cast<size_t>(kBswMaxSimdLen);
}

using RowFn = SwResult (*)(std::span<const u8>, std::span<const u8>,
                           const SwParams&, detail::BswRowScratch&);

RowFn
rowEngineFor(SimdLevel level)
{
    switch (level) {
#if GB_SIMD_HAVE_X86
      case SimdLevel::kAvx2: return detail::bswRowAvx2;
      case SimdLevel::kSse4: return detail::bswRowSse4;
#else
      case SimdLevel::kAvx2:
      case SimdLevel::kSse4:
#endif
      case SimdLevel::kScalar: break;
    }
    return nullptr;
}

/**
 * Parameters the row engine evaluates exactly like the scalar kernel:
 * its F-term scan needs gap_open >= 0 (so F never feeds itself through
 * H), and penalties up to 2^16 keep the in-chunk ramp far from i32
 * overflow. Anything else takes the scalar kernel.
 */
bool
rowEngineExact(const SwParams& p)
{
    constexpr i32 kMax = 1 << 16;
    const auto small = [](i32 v) { return v >= -kMax && v <= kMax; };
    return p.band_width >= 0 && p.gap_open >= 0 && small(p.gap_open) &&
           small(p.gap_extend) && small(p.match) && small(p.mismatch);
}

} // namespace

u32
bswLanes(SimdLevel level)
{
    return engineFor(level).lanes;
}

std::vector<SwResult>
bswAlign(std::span<const SwPair> pairs, const SwParams& params,
         BatchSwStats* stats)
{
    const Engine engine = engineFor(activeSimdLevel());
    std::vector<SwResult> results(pairs.size());
    BatchSwStats local;
    local.lanes = engine.lanes;

    for (size_t base = 0; base < pairs.size(); base += engine.lanes) {
        const u32 count = static_cast<u32>(
            std::min<size_t>(engine.lanes, pairs.size() - base));
        const SwPair* group = pairs.data() + base;
        const bool simd_ok =
            params.local &&
            std::all_of(group, group + count, simdRepresentable);
        (simd_ok ? engine.fn : bswBatchScalar)(
            group, count, params, &results[base],
            stats ? &local : nullptr);
    }
    if (stats) *stats = local;
    return results;
}

} // namespace gb::simd

namespace gb {

SwResult
bandedSw(std::span<const u8> query, std::span<const u8> target,
         const SwParams& params)
{
    const simd::RowFn row = simd::rowEngineFor(simd::activeSimdLevel());
    if (row == nullptr || query.empty() || target.empty() ||
        !simd::rowEngineExact(params)) {
        NullProbe probe;
        return bandedSwScalar(query, target, params, probe);
    }
    thread_local simd::detail::BswRowScratch scratch;
    return row(query, target, params, scratch);
}

} // namespace gb
