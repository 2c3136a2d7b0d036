/**
 * @file
 * The i16 gate of the anti-diagonal banded-SW engine behind
 * gb::bandedSw() (src/simd/bsw_engine.cc).
 *
 * bandedSw() runs one pair over AVX2 / SSE4.2 lanes chosen by
 * gb::simd::activeSimdLevel(): saturating i16 lanes when i16Exact()
 * admits the pair, exact i32 lanes otherwise (global mode, sequences
 * longer than kBswMaxSimdLen, scores or penalties past the i16 range),
 * so results never depend on the level. Per pair, every SwResult field
 * is bit-identical to bandedSwScalar().
 */
#ifndef GB_SIMD_BSW_ENGINE_H
#define GB_SIMD_BSW_ENGINE_H

#include "align/banded_sw.h"

namespace gb::simd {

/**
 * Longest sequence the 16-bit lanes take: end positions are i16 lane
 * values too. Scores are bounded separately (i16Exact()).
 */
inline constexpr i32 kBswMaxSimdLen = 16000;

/**
 * True when saturating i16 lanes evaluate the pair exactly as
 * bandedSwScalar() does: local mode, both lengths <= kBswMaxSimdLen,
 * every scoring parameter within +-2^13, gap_extend >= 0 and
 * gap_open + gap_extend >= 0 (so no gap raises a score), and the
 * highest reachable score, max(match, mismatch, 0) * min(m, n), at
 * most INT16_MAX. bandedSw() sends any other pair to the i32 lanes.
 */
bool i16Exact(const SwPair& pair, const SwParams& params);

} // namespace gb::simd

#endif // GB_SIMD_BSW_ENGINE_H
