#include "simd/simd.h"

#include <atomic>
#include <cstdlib>

#include "simd/engines_internal.h"

namespace gb::simd {

namespace {

SimdLevel
clamp(SimdLevel request)
{
    const SimdLevel best = detectSimdLevel();
    return request <= best ? request : best;
}

/**
 * Level requested via env at startup (evaluated once). An unknown
 * name throws: silently running the detected best level would record
 * a mistyped scalar baseline as a SIMD run.
 */
SimdLevel
envDefault()
{
    const char* env = std::getenv("GB_SIMD_LEVEL");
    if (!env || !*env) return detectSimdLevel();
    const auto parsed = parseSimdLevel(env);
    requireInput(parsed.has_value(),
                 std::string("GB_SIMD_LEVEL: unknown level '") + env +
                     "' (expected scalar|sse4|avx2)");
    return clamp(*parsed);
}

std::atomic<SimdLevel>&
activeSlot()
{
    static std::atomic<SimdLevel> active{envDefault()};
    return active;
}

} // namespace

const char*
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::kScalar: return "scalar";
      case SimdLevel::kSse4: return "sse4";
      case SimdLevel::kAvx2: return "avx2";
    }
    return "?";
}

std::optional<SimdLevel>
parseSimdLevel(const std::string& name)
{
    if (name == "scalar") return SimdLevel::kScalar;
    if (name == "sse4" || name == "sse4.2" || name == "sse42") {
        return SimdLevel::kSse4;
    }
    if (name == "avx2") return SimdLevel::kAvx2;
    return std::nullopt;
}

SimdLevel
detectSimdLevel()
{
#if GB_SIMD_HAVE_X86
    static const SimdLevel detected = [] {
        if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
        if (__builtin_cpu_supports("sse4.2")) return SimdLevel::kSse4;
        return SimdLevel::kScalar;
    }();
    return detected;
#else
    return SimdLevel::kScalar;
#endif
}

SimdLevel
activeSimdLevel()
{
    return activeSlot().load(std::memory_order_relaxed);
}

void
setSimdLevel(SimdLevel level)
{
    activeSlot().store(clamp(level), std::memory_order_relaxed);
}

void
resetSimdLevel()
{
    activeSlot().store(envDefault(), std::memory_order_relaxed);
}

u32
simdLanes(SimdLevel level)
{
    const detail::IsaKernels* isa = detail::isaKernels(level);
    return isa ? isa->lanes : 1;
}

const detail::IsaKernels*
detail::isaKernels([[maybe_unused]] SimdLevel level)
{
#if GB_SIMD_HAVE_X86
    switch (level) {
      case SimdLevel::kAvx2: return &kAvx2Kernels;
      case SimdLevel::kSse4: return &kSse4Kernels;
      case SimdLevel::kScalar: break;
    }
#endif
    return nullptr;
}

} // namespace gb::simd
