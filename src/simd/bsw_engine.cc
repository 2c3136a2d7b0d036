/**
 * @file
 * Dispatch layer for gb::bandedSw(), the anti-diagonal banded-SW
 * engine for one pair: it picks the widest kernel the CPU (and
 * GB_SIMD_LEVEL) allows and runs i16 lanes for i16Exact() pairs, i32
 * lanes for the rest (global mode, long pairs, large or negative
 * penalties). GB_SIMD_LEVEL=scalar runs bandedSwScalar().
 *
 * Results are always bit-identical to bandedSwScalar().
 */
#include "simd/bsw_engine.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "simd/engines_internal.h"

namespace gb::simd {

bool
i16Exact(const SwPair& pair, const SwParams& p)
{
    // Keeps -(gap_open + gap_extend) and any mismatch exact i16s, far
    // above INT16_MIN, the i16 lanes' minus infinity.
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

} // namespace gb::simd

namespace gb {

SwResult
bandedSw(std::span<const u8> query, std::span<const u8> target,
         const SwParams& params)
{
    const simd::detail::IsaKernels* isa =
        simd::detail::isaKernels(simd::activeSimdLevel());
    if (isa == nullptr || query.empty() || target.empty() ||
        params.band_width < 0) {
        NullProbe probe;
        return bandedSwScalar(query, target, params, probe);
    }
    const bool i16_lanes = simd::i16Exact({query, target}, params);
    using simd::detail::kMaxLanes;
    thread_local std::vector<u8> codes;
    thread_local std::vector<i16> cells16;
    thread_local std::vector<i32> cells32;
    codes.resize(query.size() + target.size() + 2 * kMaxLanes);
    const size_t cells = 9 * (query.size() + 2 + kMaxLanes);
    if (i16_lanes) {
        cells16.resize(cells);
    } else {
        cells32.resize(cells);
    }
    return isa->bsw_pair(query, target, params, i16_lanes,
                         {codes.data(), cells16.data(), cells32.data()});
}

} // namespace gb
