// AVX2 instantiation of the one-pair anti-diagonal banded-SW kernel
// (16 x i16 / 8 x i32 lanes). Compiled with -mavx2; only ever called
// after runtime CPUID dispatch confirms support.
#define GB_SIMD_TARGET_AVX2 1
#include "simd/bsw_diag_engine_impl.h"
