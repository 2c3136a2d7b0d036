/**
 * @file
 * Dispatch layer for the SIMD banded-SW engines, both picking the
 * widest kernel the CPU (and GB_SIMD_LEVEL) allows:
 *
 *  - bswAlign(), the inter-sequence engine: batches pairs lane-wide and
 *    routes a batch with a pair the 16-bit lanes cannot evaluate
 *    exactly (i16Exact()) to the scalar kernel;
 *  - gb::bandedSw(), the anti-diagonal engine for one pair: i16 lanes
 *    for i16Exact() pairs, i32 lanes for the rest (global mode, long
 *    pairs, large or negative penalties).
 *
 * Results are always bit-identical to bandedSwScalar().
 */
#include "simd/bsw_engine.h"

#include <algorithm>
#include <limits>

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

using PairFn = SwResult (*)(std::span<const u8>, std::span<const u8>,
                            const SwParams&, bool);

PairFn
pairEngineFor(SimdLevel level)
{
    switch (level) {
#if GB_SIMD_HAVE_X86
      case SimdLevel::kAvx2: return detail::bswPairAvx2;
      case SimdLevel::kSse4: return detail::bswPairSse4;
#else
      case SimdLevel::kAvx2:
      case SimdLevel::kSse4:
#endif
      case SimdLevel::kScalar: break;
    }
    return nullptr;
}

} // namespace

bool
i16Exact(const SwPair& pair, const SwParams& p)
{
    // Keeps -(gap_open + gap_extend) and any mismatch exact i16s, far
    // above the lockstep kernel's -30000 floor.
    constexpr i32 kHeadroom = 1 << 13;
    const auto small = [](i32 v) {
        return v >= -kHeadroom && v <= kHeadroom;
    };
    const size_t m = pair.query.size();
    const size_t n = pair.target.size();
    // Gaps never raise a score, so an alignment scores at most its
    // best substitution, matched or not, times min(m, n) pairs.
    const i32 best_sub = std::max({p.match, p.mismatch, 0});
    return p.local && m <= static_cast<size_t>(kBswMaxSimdLen) &&
           n <= static_cast<size_t>(kBswMaxSimdLen) && small(p.match) &&
           small(p.mismatch) && small(p.gap_open) &&
           small(p.gap_extend) && p.gap_extend >= 0 &&
           p.gap_open + p.gap_extend >= 0 &&
           static_cast<i64>(best_sub) * static_cast<i64>(std::min(m, n)) <=
               std::numeric_limits<i16>::max();
}

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
            std::all_of(group, group + count, [&](const SwPair& pair) {
                return i16Exact(pair, params);
            });
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
    const simd::PairFn engine =
        simd::pairEngineFor(simd::activeSimdLevel());
    if (engine == nullptr || query.empty() || target.empty() ||
        params.band_width < 0) {
        NullProbe probe;
        return bandedSwScalar(query, target, params, probe);
    }
    return engine(query, target, params,
                  simd::i16Exact({query, target}, params));
}

} // namespace gb
