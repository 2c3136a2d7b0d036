/**
 * @file
 * Vectorized anchor-chaining DP (the chain engine) — wave 3.
 *
 * Executes the mm2-fast scheme the scalar chainDp only models: for
 * each anchor, the candidate scores of the whole predecessor window
 * are evaluated kI32Lanes at a time (gap geometry, band/overlap
 * predicates and the minimap2 gap cost — linear part via float
 * multiply-truncate, halved integer log2 via a power-of-two exponent
 * extract — all folded into i32 lane arithmetic), followed by a
 * horizontal (score, parent) reduce that reproduces the scalar
 * tie-break exactly: the largest predecessor index wins equal scores,
 * and nothing beats the anchor's own span unless strictly greater.
 *
 * Dispatch: AVX2 (8 x i32 lanes) / SSE4.2 (4 lanes) / scalar
 * fallback (the chainDp template itself), selected by
 * gb::simd::activeSimdLevel(). Anchor sets with coordinates at or
 * above kChainMaxSimdCoord fall back to the scalar path per call so
 * the i32 lane differences can never overflow — results never depend
 * on the dispatch level. The uninstrumented gb::chainAnchors() runs
 * this fill.
 */
#ifndef GB_SIMD_CHAIN_ENGINE_H
#define GB_SIMD_CHAIN_ENGINE_H

#include <span>

#include "chain/chain.h"
#include "simd/simd.h"

namespace gb::simd {

/**
 * Largest anchor coordinate the i32 lanes handle exactly: with both
 * coordinates below 2^30, every dr/dq/dd difference fits a signed
 * 32-bit lane. Anything larger routes to the scalar DP.
 */
inline constexpr u32 kChainMaxSimdCoord = u32{1} << 30;

/**
 * Fill f/parent with the active SIMD engine; bit-identical to
 * chainDp() with a NullProbe. Both spans must hold anchors.size()
 * entries (parent need not be pre-initialized).
 */
void chainDpEngine(std::span<const Anchor> anchors,
                   const ChainParams& params, std::span<i32> f,
                   std::span<i32> parent);

} // namespace gb::simd

#endif // GB_SIMD_CHAIN_ENGINE_H
