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
#include <vector>

#include "align/banded_sw.h"
#include "chain/chain.h"
#include "simd/f32_engine.h"
#include "simd/poa_engine.h"
#include "util/common.h"

namespace gb::simd::detail {

/** DP rows and padded target codes reused across row-engine calls. */
struct BswRowScratch
{
    std::vector<i32> h_prev;
    std::vector<i32> h_curr;
    std::vector<i32> e_col;
    std::vector<u8> target;
};

/**
 * One pair through the intra-pair row engine (i32 lanes, one band row
 * per pass). Preconditions (checked by the dispatcher): non-empty
 * sequences and parameters the engine evaluates exactly (see
 * bandedSw() in bsw_engine.cc). Bit-identical to bandedSwScalar(),
 * cell_updates included.
 */
SwResult bswRowSse4(std::span<const u8> query, std::span<const u8> target,
                    const SwParams& params, BswRowScratch& scratch);
SwResult bswRowAvx2(std::span<const u8> query, std::span<const u8> target,
                    const SwParams& params, BswRowScratch& scratch);

/**
 * One lockstep batch of at most kI16Lanes pairs. Preconditions
 * (checked by the dispatcher): params.local, every sequence length in
 * (0, kBswMaxSimdLen], count <= lane width. Accumulates vector_slots /
 * useful_cells into `stats` when non-null.
 */
void bswBatchSse4(const SwPair* pairs, u32 count, const SwParams& params,
                  SwResult* out, BatchSwStats* stats);
void bswBatchAvx2(const SwPair* pairs, u32 count, const SwParams& params,
                  SwResult* out, BatchSwStats* stats);

/**
 * Occ partial-block counters (popcount over bit planes): add the
 * occurrences of each symbol 0..5 in bytes[0, len) to counts. Never
 * read past bytes[len).
 */
void occCountSse4(const u8* bytes, u32 len, u64* counts);
void occCountAvx2(const u8* bytes, u32 len, u64* counts);

/**
 * Padded variants: require bytes[0, roundUp(len, kOccPad)) readable
 * and count the tail chunk in place (no staging copy). Same results.
 */
void occCountPaddedSse4(const u8* bytes, u32 len, u64* counts);
void occCountPaddedAvx2(const u8* bytes, u32 len, u64* counts);

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

} // namespace gb::simd::detail

#endif // GB_SIMD_ENGINES_INTERNAL_H
