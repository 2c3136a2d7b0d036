/**
 * @file
 * Output-parallel f32 micro-GEMM (the nn/grm engine).
 *
 * Computes out[r][c] = init[r][c] + sum_k a[r][k] * b[k][c] with k in
 * ascending order, one multiply and then one add per term (never an
 * FMA). The vector lanes run across the output columns c and the
 * registers are blocked over r x c (4 x 2 vectors per tile), so every
 * lane performs exactly the float operations of the scalar loop
 *
 *     float acc = init[r][c];
 *     for (k = 0; k < depth; ++k) acc += a[r][k] * b[k][c];
 *     out[r][c] = acc;
 *
 * for its own output. No sum is reassociated, which is why the result
 * is bit-identical at every dispatch level (see docs/simd.md). The
 * callers (Conv1d, Dense and BiLstm in nn/layers.cc, computeGrm in
 * grm/grm.cc) hand it k-major weight copies or a site-major
 * standardized genotype panel.
 *
 * Dispatch: AVX2 (8 float lanes) / SSE4.2 (4) / the scalar triple
 * loop above, chosen by gb::simd::activeSimdLevel().
 */
#ifndef GB_SIMD_F32_ENGINE_H
#define GB_SIMD_F32_ENGINE_H

#include <cstddef>

#include "simd/simd.h"
#include "util/common.h"

namespace gb::simd {

/** Operands of one micro-GEMM call (all strides in floats). */
struct F32Gemm
{
    u32 rows = 0;
    u32 cols = 0;
    u32 depth = 0;
    const float* a = nullptr; ///< a[r * a_row + k]
    size_t a_row = 0;
    const float* b = nullptr; ///< b[k * ldb + c]
    size_t ldb = 0;
    /** init[r * ldi + c] (ldi = 0 broadcasts one row); null = +0. */
    const float* init = nullptr;
    size_t ldi = 0;
    /** out[r * ldo + c]; may be init itself (same element, same ld). */
    float* out = nullptr;
    size_t ldo = 0;
};

using F32GemmFn = void (*)(const F32Gemm& g);

/** The plain triple loop (the scalar level and the test oracle). */
void f32GemmScalar(const F32Gemm& g);

/** Implementation for a dispatch level (clamped to CPU support). */
F32GemmFn f32GemmFor(SimdLevel level);

/** Run one call at the active dispatch level. */
inline void
f32Gemm(const F32Gemm& g)
{
    f32GemmFor(activeSimdLevel())(g);
}

} // namespace gb::simd

#endif // GB_SIMD_F32_ENGINE_H
