/** AVX2 instantiation of the f32 micro-GEMM. */
#define GB_SIMD_TARGET_AVX2 1
#include "simd/f32_engine_impl.h"

#include "simd/engines_internal.h"

namespace gb::simd::detail {

void
f32GemmAvx2(const F32Gemm& g)
{
    f32GemmVec(g);
}

} // namespace gb::simd::detail
