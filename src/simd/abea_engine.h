/**
 * @file
 * Band-parallel adaptive banded event alignment (the abea engine).
 *
 * Executes the f5c GPU mapping the instrumented abea template only
 * models: the cells of one band are independent of each other (each
 * reads bands b-1 and b-2 only), so they fill kF32Lanes at a time.
 * The caller lays each read out so that every lane load is
 * contiguous: the k-mer levels are copied by sequence position (the
 * k-mer index rises with the band offset) and the event means are
 * reversed (so the reversed event index rises with it too). Within a
 * band the up, left and diagonal neighbours sit at a constant slot
 * shift from the cell, fixed by the last two band moves; band rows
 * carry one -inf guard slot on each side, so the shifted loads read
 * exactly the -inf the template substitutes for an out-of-band
 * neighbour.
 *
 * Each lane repeats the template's float operations in its order
 * (emission, three transition sums, strict-> selects diag -> up ->
 * left, update only where the best beats the stored cell), so score
 * bits and traceback bytes are identical at every level
 * (docs/simd.md). The adaptive move, trim column, termination scan
 * and backtrace stay in src/abea/abea.cc, shared with the template.
 *
 * Dispatch: AVX2 (8 float lanes) / SSE4.2 (4) / none at the scalar
 * level, where the uninstrumented gb::alignEvents() runs the
 * template itself.
 */
#ifndef GB_SIMD_ABEA_ENGINE_H
#define GB_SIMD_ABEA_ENGINE_H

#include "simd/simd.h"
#include "util/common.h"

namespace gb::simd {

/** Traceback byte of an abea band cell. */
enum AbeaFrom : u8
{
    kAbeaFromNone = 0,
    kAbeaFromDiag = 1,
    kAbeaFromUp = 2,
    kAbeaFromLeft = 3,
};

/** log(sqrt(2 pi)), the Gaussian emission's constant term. */
inline constexpr float kAbeaLogSqrt2Pi = 0.9189385332f;

/**
 * Elements every engine operand must stay readable (and `cur` /
 * `trace` writable) past its last cell: vector chunks overrun the
 * band's cell range by up to kF32Lanes - 1 lanes, which are loaded
 * but never change what is stored.
 */
inline constexpr u32 kAbeaPad = 8;

/**
 * One band's cells. Cell i (0 <= i < n) reads slot i of every array:
 * its neighbours up[i], left[i] and diag[i] (rows b-1, b-1 and b-2,
 * already shifted, -inf where out of band), its k-mer's level_mean,
 * level_stdv and log_stdv, and its event's mean; it updates cur[i]
 * and trace[i] only where its best score beats cur[i].
 */
struct AbeaBand
{
    u32 n = 0;
    float* cur = nullptr;
    u8* trace = nullptr;
    const float* up = nullptr;
    const float* left = nullptr;
    const float* diag = nullptr;
    const float* level_mean = nullptr;
    const float* level_stdv = nullptr;
    const float* log_stdv = nullptr;
    const float* event_mean = nullptr;
    float lp_step = 0; ///< diag transition
    float lp_stay = 0; ///< up transition
    float lp_skip = 0; ///< left transition
};

using AbeaBandFn = void (*)(const AbeaBand& band);

/** Band kernel for a dispatch level; null at the scalar level. */
AbeaBandFn abeaBandFor(SimdLevel level);

} // namespace gb::simd

#endif // GB_SIMD_ABEA_ENGINE_H
