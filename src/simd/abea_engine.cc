/**
 * @file
 * Dispatch table of the band-parallel abea engine
 * (abea_engine_sse4.cc / abea_engine_avx2.cc).
 */
#include "simd/abea_engine.h"

#include "simd/engines_internal.h"

namespace gb::simd {

namespace {

struct Engine
{
    AbeaBandFn fn;
    u32 lanes;
};

/** Function-pointer table indexed by SimdLevel. */
Engine
engineFor(SimdLevel level)
{
    switch (level) {
#if GB_SIMD_HAVE_X86
      case SimdLevel::kAvx2: return {detail::abeaBandAvx2, 8};
      case SimdLevel::kSse4: return {detail::abeaBandSse4, 4};
#else
      case SimdLevel::kAvx2:
      case SimdLevel::kSse4:
#endif
      case SimdLevel::kScalar: break;
    }
    return {nullptr, 1};
}

} // namespace

AbeaBandFn
abeaBandFor(SimdLevel level)
{
    return engineFor(level).fn;
}

u32
abeaLanes(SimdLevel level)
{
    return engineFor(level).lanes;
}

} // namespace gb::simd
