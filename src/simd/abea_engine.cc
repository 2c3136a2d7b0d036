/**
 * @file
 * Dispatch of the band-parallel abea engine (abea_engine_impl.h).
 */
#include "simd/abea_engine.h"

#include "simd/engines_internal.h"

namespace gb::simd {

AbeaBandFn
abeaBandFor(SimdLevel level)
{
    const detail::IsaKernels* isa = detail::isaKernels(level);
    return isa ? isa->abea_band : nullptr;
}

} // namespace gb::simd
