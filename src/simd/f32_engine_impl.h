/**
 * @file
 * ISA-generic implementation of the f32 micro-GEMM.
 *
 * Included by f32_engine_sse4.cc / f32_engine_avx2.cc with exactly one
 * of GB_SIMD_TARGET_SSE4 / GB_SIMD_TARGET_AVX2 defined (the vec.h
 * multi-include convention). A tile holds kR rows x kV vectors of
 * accumulators in registers; each k step loads kV vectors of b[k],
 * broadcasts a[r][k] per row and does one vMulF32 then one vAddF32
 * per accumulator — the scalar loop's operations, one output per
 * lane. Rows go in blocks of 4 (4 x 2 vectors: 8 independent add
 * chains), leftover rows one at a time with up to 8 vectors so a
 * single-row call (an LSTM step) still keeps several chains in flight.
 * Columns narrower than one vector take the scalar loop.
 */
#if !defined(GB_SIMD_TARGET_SSE4) && !defined(GB_SIMD_TARGET_AVX2)
#error "f32_engine_impl.h requires a GB_SIMD_TARGET_* definition"
#endif

#include "simd/engines_internal.h"
#include "simd/f32_engine.h"
#include "simd/vec.h"

namespace gb::simd {

namespace {

template <u32 kR, u32 kV>
inline void
f32Tile(const F32Gemm& g, u32 r0, u32 c0)
{
    VecF32 acc[kR][kV];
    const float* a[kR];
    for (u32 r = 0; r < kR; ++r) {
        a[r] = g.a + (r0 + r) * g.a_row;
        for (u32 v = 0; v < kV; ++v) {
            acc[r][v] = g.init ? vLoadF32(g.init + (r0 + r) * g.ldi +
                                          c0 + v * kF32Lanes)
                               : vSet1F32(0.0f);
        }
    }
    const float* b = g.b + c0;
    for (u32 k = 0; k < g.depth; ++k) {
        VecF32 bk[kV];
        for (u32 v = 0; v < kV; ++v) {
            bk[v] = vLoadF32(b + v * kF32Lanes);
        }
        for (u32 r = 0; r < kR; ++r) {
            const VecF32 ak = vSet1F32(a[r][k]);
            for (u32 v = 0; v < kV; ++v) {
                acc[r][v] = vAddF32(acc[r][v], vMulF32(ak, bk[v]));
            }
        }
        b += g.ldb;
    }
    for (u32 r = 0; r < kR; ++r) {
        for (u32 v = 0; v < kV; ++v) {
            vStoreF32(g.out + (r0 + r) * g.ldo + c0 + v * kF32Lanes,
                      acc[r][v]);
        }
    }
}

/** Columns [c, cols) of rows [r0, r0 + kR), widest tiles first. */
template <u32 kR, u32 kV>
inline void
f32Cols(const F32Gemm& g, u32 r0, u32 c)
{
    for (; c + kV * kF32Lanes <= g.cols; c += kV * kF32Lanes) {
        f32Tile<kR, kV>(g, r0, c);
    }
    if constexpr (kV > 1) {
        f32Cols<kR, kV / 2>(g, r0, c);
    } else if (c < g.cols) {
        detail::f32GemmScalarBlock(g, r0, r0 + kR, c);
    }
}

inline void
f32GemmVec(const F32Gemm& g)
{
    u32 r = 0;
    for (; r + 4 <= g.rows; r += 4) f32Cols<4, 2>(g, r, 0);
    for (; r < g.rows; ++r) f32Cols<1, 8>(g, r, 0);
}

} // namespace

} // namespace gb::simd
