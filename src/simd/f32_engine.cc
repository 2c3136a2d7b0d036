/**
 * @file
 * Dispatch layer for the f32 micro-GEMM: the scalar triple loop plus
 * the function-pointer table over the per-ISA implementations
 * (f32_engine_sse4.cc / f32_engine_avx2.cc).
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
    switch (level) {
#if GB_SIMD_HAVE_X86
      case SimdLevel::kAvx2: return detail::f32GemmAvx2;
      case SimdLevel::kSse4: return detail::f32GemmSse4;
#else
      case SimdLevel::kAvx2:
      case SimdLevel::kSse4:
#endif
      case SimdLevel::kScalar: break;
    }
    return f32GemmScalar;
}

} // namespace gb::simd
