// SSE4.2 instantiation of the one-pair anti-diagonal banded-SW kernel
// (8 x i16 / 4 x i32 lanes). Compiled with -msse4.2; only ever called
// after runtime CPUID dispatch confirms support.
#define GB_SIMD_TARGET_SSE4 1
#include "simd/bsw_diag_engine_impl.h"
