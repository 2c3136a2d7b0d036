/** SSE4.2 instantiation of the f32 micro-GEMM. */
#define GB_SIMD_TARGET_SSE4 1
#include "simd/f32_engine_impl.h"

#include "simd/engines_internal.h"

namespace gb::simd::detail {

void
f32GemmSse4(const F32Gemm& g)
{
    f32GemmVec(g);
}

} // namespace gb::simd::detail
