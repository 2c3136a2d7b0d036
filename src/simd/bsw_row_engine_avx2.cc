// AVX2 instantiation of the intra-pair banded-SW row engine (8 x i32
// lanes). Compiled with -mavx2; only ever called after runtime CPUID
// dispatch confirms support.
#define GB_SIMD_TARGET_AVX2 1
#include "simd/bsw_row_engine_impl.h"
