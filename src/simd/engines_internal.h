/**
 * @file
 * Internal per-ISA entry points shared between the dispatch tables
 * (bsw_engine.cc / phmm_engine.cc) and the ISA translation units
 * (*_sse4.cc / *_avx2.cc, which define them via the *_impl.h
 * templates). Not part of the public gb::simd API.
 */
#ifndef GB_SIMD_ENGINES_INTERNAL_H
#define GB_SIMD_ENGINES_INTERNAL_H

#include <span>

#include "align/banded_sw.h"
#include "chain/chain.h"
#include "simd/abea_engine.h"
#include "simd/f32_engine.h"
#include "simd/poa_engine.h"
#include "util/common.h"

namespace gb::simd::detail {

/**
 * One pair through the anti-diagonal engine: saturating i16 lanes when
 * `i16_lanes` (the dispatcher passes i16Exact()), exact i32 lanes
 * otherwise. Preconditions (checked by the dispatcher): non-empty
 * sequences and band_width >= 0. Bit-identical to bandedSwScalar(),
 * cell_updates included.
 */
SwResult bswPairSse4(std::span<const u8> query, std::span<const u8> target,
                     const SwParams& params, bool i16_lanes);
SwResult bswPairAvx2(std::span<const u8> query, std::span<const u8> target,
                     const SwParams& params, bool i16_lanes);

/**
 * Inputs for one anti-diagonal PairHMM forward pass at precision T
 * (float: the first pass; double: the underflow re-run).
 */
template <typename T>
struct PhmmInput
{
    const u8* read;     ///< m codes, padded with >=8 bytes of 0xFF
    const u8* hap_rev;  ///< reversed haplotype, >=8 pad bytes EACH side
    const T* prior_match;    ///< per-row 1 - err, padded >= 8
    const T* prior_mismatch; ///< per-row err / 3, padded >= 8
    u32 m = 0;
    u32 n = 0;
    T t_mm = 0; ///< match -> match
    T t_mi = 0; ///< match -> insertion
    T t_md = 0; ///< match -> deletion
    T t_im = 0; ///< insertion/deletion -> match
    T t_ii = 0; ///< gap continuation
    T init = 0; ///< initial_scale / n (row-0 deletion mass)
};

/**
 * Scaled forward sum, anti-diagonal wavefront, kF32Lanes (float) or
 * kF64Lanes (double) cells per step. Per-cell arithmetic matches the
 * scalar forwardScaled<T> expression.
 */
float phmmForwardSse4(const PhmmInput<float>& in);
double phmmForwardSse4(const PhmmInput<double>& in);
float phmmForwardAvx2(const PhmmInput<float>& in);
double phmmForwardAvx2(const PhmmInput<double>& in);

/**
 * Vectorized chaining DP fill. Preconditions (checked by the
 * dispatcher): every anchor coordinate < kChainMaxSimdCoord, and
 * tpos/qpos/f_pad are SoA copies padded to n + kI32Lanes entries
 * (pad lanes are loaded but always masked out). f_pad[0, n) receives
 * the scores; parent has exactly n entries.
 */
void chainDpSse4(const Anchor* anchors, const i32* tpos,
                 const i32* qpos, u32 n, const ChainParams& params,
                 i32* f_pad, i32* parent);
void chainDpAvx2(const Anchor* anchors, const i32* tpos,
                 const i32* qpos, u32 n, const ChainParams& params,
                 i32* f_pad, i32* parent);

/**
 * One predecessor-row pass of the POA row kernel (diag + del
 * candidates for columns 1..n, strictly-greater updates in scalar
 * candidate order). Full vector chunks only; the <kI32Lanes tail is
 * updated scalar so no store ever leaves the row.
 */
void poaRowPassSse4(const PoaRowPassArgs& args);
void poaRowPassAvx2(const PoaRowPassArgs& args);

/**
 * Vectorized insertion-gap fixup: in-register max-plus prefix scan on
 * ramp-subtracted scores, carry chained through best[] between chunks.
 * Bit-identical to the serial left-to-right loop.
 */
void poaInsScanSse4(const PoaInsScanArgs& args);
void poaInsScanAvx2(const PoaInsScanArgs& args);

/**
 * The scalar loop over rows [r0, r1) and columns [c0, cols): the whole
 * scalar level, and the vector levels' sub-vector column tail.
 */
void f32GemmScalarBlock(const F32Gemm& g, u32 r0, u32 r1, u32 c0);

/** Output-parallel micro-GEMM; bit-identical to f32GemmScalar(). */
void f32GemmSse4(const F32Gemm& g);
void f32GemmAvx2(const F32Gemm& g);

/**
 * One abea band, kF32Lanes cells per step; bit-identical to the
 * template's cell loop (scores and traceback bytes).
 */
void abeaBandSse4(const AbeaBand& band);
void abeaBandAvx2(const AbeaBand& band);

} // namespace gb::simd::detail

#endif // GB_SIMD_ENGINES_INTERNAL_H
