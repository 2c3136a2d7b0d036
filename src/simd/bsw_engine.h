/**
 * @file
 * Real inter-sequence SIMD banded Smith-Waterman (the bsw engine).
 *
 * Executes the BWA-MEM2 scheme that BatchSwAligner only *models*: up to
 * 16 query/target pairs advance in lockstep through the banded affine
 * recurrence, one pair per 16-bit vector lane, with an SoA batch layout
 * (sequences and DP rows interleaved lane-wise), saturating-add score
 * clamping and per-lane z-drop masking. Per pair, the score, end
 * position and abort flag are bit-identical to bandedSwScalar().
 *
 * Dispatch: AVX2 (16 lanes) / SSE4.2 (8 lanes) / portable scalar
 * fallback, chosen by gb::simd::activeSimdLevel(). A batch holding a
 * pair the 16-bit lanes cannot evaluate exactly (i16Exact(): global
 * mode, sequences longer than kBswMaxSimdLen, scores or penalties past
 * the i16 range) takes the scalar path, so results never depend on the
 * level.
 */
#ifndef GB_SIMD_BSW_ENGINE_H
#define GB_SIMD_BSW_ENGINE_H

#include <span>
#include <vector>

#include "align/banded_sw.h"
#include "simd/simd.h"

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
 * most INT16_MAX.
 * bswAlign() sends a batch with any other pair to the scalar kernel,
 * and bandedSw() sends such a pair to the i32 lanes.
 */
bool i16Exact(const SwPair& pair, const SwParams& params);

/** Vector lanes at a dispatch level (16 / 8 / 1). */
u32 bswLanes(SimdLevel level);

/**
 * Align all pairs with the active SIMD engine; results in input order
 * and per-pair identical to bandedSwScalar().
 *
 * @param[out] stats Optional lockstep work accounting (same meaning as
 *                   BatchSwAligner: slots executed x lanes vs useful
 *                   cells). Lanes reflect the dispatched level.
 */
std::vector<SwResult> bswAlign(std::span<const SwPair> pairs,
                               const SwParams& params,
                               BatchSwStats* stats = nullptr);

} // namespace gb::simd

#endif // GB_SIMD_BSW_ENGINE_H
