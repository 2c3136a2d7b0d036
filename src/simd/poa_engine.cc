/**
 * @file
 * Dispatch layer and scalar reference for the POA row pass.
 */
#include "simd/poa_engine.h"

#include "simd/engines_internal.h"

namespace gb::simd {

void
poaRowPassScalar(const PoaRowPassArgs& a)
{
    for (u32 j = 1; j <= a.n; ++j) {
        const u8 c = a.codes[j - 1];
        const i32 sub = c == a.base && c < 4 ? a.match : a.mismatch;
        const i32 diag = a.pred[j - 1] + sub;
        if (a.first || diag > a.best[j]) {
            a.best[j] = diag;
            a.tb32[j] = a.tb_diag;
        }
        const i32 del = a.pred[j] + a.gap;
        if (del > a.best[j]) {
            a.best[j] = del;
            a.tb32[j] = a.tb_del;
        }
    }
}

void
poaInsScanScalar(const PoaInsScanArgs& a)
{
    for (u32 j = 1; j <= a.n; ++j) {
        const i32 ins = a.best[j - 1] + a.gap;
        if (ins > a.best[j]) {
            a.best[j] = ins;
            a.tb[j] = static_cast<u8>(a.tb_ins);
        } else {
            a.tb[j] = static_cast<u8>(a.tb32[j]);
        }
    }
}

PoaInsScanFn
poaInsScanFor(SimdLevel level)
{
    const detail::IsaKernels* isa = detail::isaKernels(level);
    return isa ? isa->poa_ins_scan : poaInsScanScalar;
}

PoaRowPassFn
poaRowPassFor(SimdLevel level)
{
    const detail::IsaKernels* isa = detail::isaKernels(level);
    return isa ? isa->poa_row_pass : poaRowPassScalar;
}

} // namespace gb::simd
