/**
 * @file
 * Runtime SIMD dispatch for the execution-engine kernels.
 *
 * The suite's instrumented kernels *model* vectorization (they charge
 * kVecAlu probe ops from a scalar loop); the gb::simd engines *execute*
 * it. Kernels exist at up to three instruction-set levels:
 *
 *  - kScalar: portable C++, always available (the fallback that keeps
 *    non-x86 builds and exotic CPUs working);
 *  - kSse4:   SSE4.2, 8 x i16 lanes / 4 x f32 lanes;
 *  - kAvx2:   AVX2, 16 x i16 lanes / 8 x f32 lanes.
 *
 * The level is picked once per process by CPUID (detectSimdLevel) and
 * can be forced down with the GB_SIMD_LEVEL environment variable
 * (scalar|sse4|avx2) or setSimdLevel() — requests above what the CPU
 * supports are clamped, so GB_SIMD_LEVEL=avx2 on an SSE-only host
 * degrades instead of crashing, while an unknown name is an
 * InputError. Each engine call looks up the kernel table of
 * activeSimdLevel() (one per instruction set, none at kScalar).
 *
 * The level is the suite's one scalar/SIMD switch: GB_SIMD_LEVEL=scalar
 * runs every engine's scalar path, which is the honest baseline.
 */
#ifndef GB_SIMD_SIMD_H
#define GB_SIMD_SIMD_H

#include <optional>
#include <string>

#include "util/common.h"

namespace gb::simd {

/** Instruction-set level of an engine implementation. */
enum class SimdLevel : u8
{
    kScalar = 0,
    kSse4 = 1,
    kAvx2 = 2,
};

/** Display name ("scalar", "sse4", "avx2"). */
const char* simdLevelName(SimdLevel level);

/** Parse a level name; std::nullopt for unknown names. */
std::optional<SimdLevel> parseSimdLevel(const std::string& name);

/** Best level this CPU supports (CPUID; kScalar on non-x86). */
SimdLevel detectSimdLevel();

/**
 * Level the engines dispatch on: min(requested, detected), where the
 * request comes from setSimdLevel() or else GB_SIMD_LEVEL at first
 * call, and defaults to the detected best. Throws InputError while
 * GB_SIMD_LEVEL holds an unknown name.
 */
SimdLevel activeSimdLevel();

/** Force a dispatch level (clamped to detectSimdLevel()); for tests. */
void setSimdLevel(SimdLevel level);

/** Drop back to the GB_SIMD_LEVEL / CPUID default (throws likewise). */
void resetSimdLevel();

/** 32-bit (i32 and f32) vector lanes at a dispatch level (8 / 4 / 1). */
u32 simdLanes(SimdLevel level);

} // namespace gb::simd

#endif // GB_SIMD_SIMD_H
