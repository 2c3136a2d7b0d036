// SSE4.2 instantiation of the intra-pair banded-SW row engine (4 x i32
// lanes). Compiled with -msse4.2; only ever called after runtime CPUID
// dispatch confirms support.
#define GB_SIMD_TARGET_SSE4 1
#include "simd/bsw_row_engine_impl.h"
