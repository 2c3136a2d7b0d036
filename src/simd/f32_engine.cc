/**
 * @file
 * Dispatch layer for the f32 micro-GEMM: the scalar triple loop, and
 * the level's vector kernel from isaKernels() (f32_engine_impl.h).
 */
#include "simd/f32_engine.h"

#include "simd/engines_internal.h"

namespace gb::simd {

namespace detail {

void
f32GemmScalarBlock(const F32Gemm& g, u32 r0, u32 r1, u32 c0)
{
    for (u32 r = r0; r < r1; ++r) {
        const float* a = g.a + r * g.a_row;
        for (u32 c = c0; c < g.cols; ++c) {
            float acc = g.init ? g.init[r * g.ldi + c] : 0.0f;
            for (u32 k = 0; k < g.depth; ++k) {
                acc += a[k] * g.b[k * g.ldb + c];
            }
            g.out[r * g.ldo + c] = acc;
        }
    }
}

} // namespace detail

void
f32GemmScalar(const F32Gemm& g)
{
    detail::f32GemmScalarBlock(g, 0, g.rows, 0);
}

F32GemmFn
f32GemmFor(SimdLevel level)
{
    const detail::IsaKernels* isa = detail::isaKernels(level);
    return isa ? isa->f32_gemm : f32GemmScalar;
}

} // namespace gb::simd
