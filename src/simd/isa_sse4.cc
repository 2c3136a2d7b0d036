/**
 * @file
 * The SSE4.2 kernels (4 x i32/f32 lanes, 8 x i16, 2 x f64). Compiled
 * with -msse4.2 and called only through isaKernels(), after CPUID
 * dispatch confirms support.
 */
#define GB_SIMD_TARGET_SSE4 1
#include "simd/vec.h"

#include "simd/abea_engine_impl.h"
#include "simd/bsw_diag_engine_impl.h"
#include "simd/chain_engine_impl.h"
#include "simd/engines_internal.h"
#include "simd/f32_engine_impl.h"
#include "simd/phmm_engine_impl.h"
#include "simd/poa_engine_impl.h"

namespace gb::simd::detail {

const IsaKernels kSse4Kernels = {
    .bsw_pair = bswPairVec,
    .phmm_f32 = phmmForward<float>,
    .phmm_f64 = phmmForward<double>,
    .chain_dp = chainDpVec,
    .poa_row_pass = poaRowPassVec,
    .poa_ins_scan = poaInsScanVec,
    .f32_gemm = f32GemmVec,
    .abea_band = abeaBandVec,
    .lanes = kI32Lanes,
};

} // namespace gb::simd::detail
