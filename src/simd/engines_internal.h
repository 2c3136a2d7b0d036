/**
 * @file
 * The per-ISA kernel table shared between the engine wrappers
 * (*_engine.cc) and the two ISA translation units (isa_sse4.cc,
 * isa_avx2.cc), which compile the *_impl.h kernel bodies with their
 * own -m flags and export one IsaKernels each. isaKernels() in
 * simd.cc is the one place that maps a SimdLevel to a table. Not part
 * of the public gb::simd API.
 */
#ifndef GB_SIMD_ENGINES_INTERNAL_H
#define GB_SIMD_ENGINES_INTERNAL_H

#include <span>

#include "align/banded_sw.h"
#include "chain/chain.h"
#include "simd/abea_engine.h"
#include "simd/f32_engine.h"
#include "simd/poa_engine.h"
#include "simd/simd.h"
#include "util/common.h"

namespace gb::simd::detail {

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

/** The vector kernels of one instruction set. */
struct IsaKernels
{
    /**
     * One pair through the anti-diagonal engine: saturating i16 lanes
     * when `i16_lanes` (the caller passes i16Exact()), exact i32 lanes
     * otherwise. Preconditions (checked by the caller): non-empty
     * sequences and band_width >= 0. Bit-identical to
     * bandedSwScalar(), cell_updates included.
     */
    SwResult (*bsw_pair)(std::span<const u8> query,
                         std::span<const u8> target,
                         const SwParams& params, bool i16_lanes);

    /**
     * Scaled forward sum, anti-diagonal wavefront, kF32Lanes (float)
     * or kF64Lanes (double) cells per step. Per-cell arithmetic
     * matches the scalar forwardScaled<T> expression.
     */
    float (*phmm_f32)(const PhmmInput<float>& in);
    double (*phmm_f64)(const PhmmInput<double>& in);

    /**
     * Chaining DP fill. Preconditions (checked by the caller): every
     * anchor coordinate < kChainMaxSimdCoord, and tpos/qpos/f_pad are
     * SoA copies padded to n + lanes entries (pad lanes are loaded but
     * always masked out). f_pad[0, n) receives the scores; parent has
     * exactly n entries.
     */
    void (*chain_dp)(const Anchor* anchors, const i32* tpos,
                     const i32* qpos, u32 n, const ChainParams& params,
                     i32* f_pad, i32* parent);

    /**
     * One predecessor-row pass of the POA row kernel, and the
     * insertion-gap fixup as an in-register max-plus prefix scan; both
     * bit-identical to poaRowPassScalar() / poaInsScanScalar().
     */
    PoaRowPassFn poa_row_pass;
    PoaInsScanFn poa_ins_scan;

    /** Output-parallel micro-GEMM; bit-identical to f32GemmScalar(). */
    F32GemmFn f32_gemm;

    /**
     * One abea band, kF32Lanes cells per step; bit-identical to the
     * template's cell loop (scores and traceback bytes).
     */
    AbeaBandFn abea_band;

    /** 32-bit (i32 and f32) lanes per vector. */
    u32 lanes;
};

/** The kernels of a dispatch level; null at the scalar level. */
const IsaKernels* isaKernels(SimdLevel level);

extern const IsaKernels kSse4Kernels; ///< isa_sse4.cc
extern const IsaKernels kAvx2Kernels; ///< isa_avx2.cc

/**
 * The scalar loop over rows [r0, r1) and columns [c0, cols): the whole
 * scalar level, and the vector levels' sub-vector column tail.
 */
void f32GemmScalarBlock(const F32Gemm& g, u32 r0, u32 r1, u32 c0);

} // namespace gb::simd::detail

#endif // GB_SIMD_ENGINES_INTERNAL_H
