/**
 * @file
 * SIMD row kernel for partial-order alignment — wave 3.
 *
 * The POA DP (poa/poa.h) is irregular across rows (each graph node
 * row reads a variable set of predecessor rows) but perfectly regular
 * within a row: for one predecessor row the diag / del candidates of
 * query columns 1..n are independent. The engine therefore exposes a
 * ROW PASS: one call applies one predecessor row's candidates to the
 * current row, kI32Lanes columns at a time, with strictly-greater
 * updates in the scalar candidate order (diag before del). The serial
 * parts of the recurrence — the j = 0 column, the left-to-right
 * insertion-gap fixup and the traceback — stay in gb::poa, which
 * drives one pass per predecessor in graph order, so the sequence of
 * per-cell candidate comparisons is exactly the scalar loop's and the
 * resulting alignment is bit-identical at every dispatch level.
 *
 * Traceback entries are staged as i32 lanes (tb32) holding the packed
 * (pred-index << 2 | move) byte gb::poa narrows to its u8 traceback
 * matrix during the insertion fixup; the engine treats tb_diag /
 * tb_del as opaque lane values.
 */
#ifndef GB_SIMD_POA_ENGINE_H
#define GB_SIMD_POA_ENGINE_H

#include "simd/simd.h"
#include "util/common.h"

namespace gb::simd {

/** One predecessor-row pass over query columns 1..n. */
struct PoaRowPassArgs
{
    const i32* pred = nullptr; ///< predecessor h row (n + 1 cells)
    i32* best = nullptr;       ///< current h row, updated in place
    i32* tb32 = nullptr;       ///< staged traceback lanes (n + 1)
    const u8* codes = nullptr; ///< query codes (n bytes)
    u32 n = 0;                 ///< query length (columns 1..n)
    i32 match = 0;
    i32 mismatch = 0;
    i32 gap = 0;
    u8 base = 0;    ///< graph node base for the substitution test
    i32 tb_diag = 0; ///< lane value stored when diag wins
    i32 tb_del = 0;  ///< lane value stored when del wins
    /**
     * First predecessor pass of the row: best[] and tb32[] are
     * uninitialized and the diag candidate is written unconditionally
     * (it always beats the -inf a fresh row would hold, because
     * predecessor rows are finalized and finite everywhere). Spares
     * the caller a full-matrix -inf memset per alignment.
     */
    bool first = false;
};

using PoaRowPassFn = void (*)(const PoaRowPassArgs&);

/**
 * The serial insertion-gap fixup over a finalized-pass row: for j in
 * 1..n ascending, ins = best[j-1] + gap replaces best[j] when strictly
 * greater (tb[j] = tb_ins) else tb[j] narrows the staged tb32[j] lane.
 *
 * The recurrence is a max-plus prefix scan, so the vector engines run
 * it as an in-register max-scan on ramp-subtracted values
 * (y[j] = best[j] - j*gap turns "+gap per step" into plain max), with
 * the previous chunk's last column entering as a constant carry —
 * bit-identical to the left-to-right scalar loop including the
 * keep-non-insertion tie rule.
 */
struct PoaInsScanArgs
{
    i32* best = nullptr;       ///< current h row (cells 0..n), 0 final
    const i32* tb32 = nullptr; ///< staged traceback lanes (n + 1)
    u8* tb = nullptr;          ///< packed traceback row; writes 1..n
    u32 n = 0;
    i32 gap = 0;
    i32 tb_ins = 0; ///< packed byte stored when the insertion wins
};

using PoaInsScanFn = void (*)(const PoaInsScanArgs&);

/**
 * Portable reference pass; also the dispatch fallback. For every j in
 * 1..n, in candidate order: diag = pred[j-1] + sub(codes[j-1], base),
 * then del = pred[j] + gap, each replacing best[j] / tb32[j] only when
 * strictly greater.
 */
void poaRowPassScalar(const PoaRowPassArgs& args);

/** Portable reference scan; also the dispatch fallback. */
void poaInsScanScalar(const PoaInsScanArgs& args);

/** Widest row pass the level allows (falls back to scalar). */
PoaRowPassFn poaRowPassFor(SimdLevel level);

/** Widest insertion scan the level allows (falls back to scalar). */
PoaInsScanFn poaInsScanFor(SimdLevel level);

} // namespace gb::simd

#endif // GB_SIMD_POA_ENGINE_H
