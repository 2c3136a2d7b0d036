/**
 * @file
 * ISA-generic implementation of the POA row pass.
 *
 * Compiled once per ISA, by isa_sse4.cc and isa_avx2.cc (see vec.h).
 *
 * One chunk handles kI32Lanes consecutive query columns: the codes are
 * widened to 32-bit lanes for the substitution select, diag reads the
 * predecessor row shifted one column left, del reads it in place, and
 * the two strictly-greater updates run in the scalar candidate order
 * (diag first). All reads and writes for chunk base j0 stay inside
 * [j0 - 1, j0 + kI32Lanes - 1] <= n, so vector chunks require
 * j0 + kI32Lanes - 1 <= n and the remaining columns take the scalar
 * tail — no store ever touches memory past the row.
 */
#include <limits>

#include "simd/poa_engine.h"
#include "simd/vec.h"
#include "util/common.h"

namespace gb::simd {

namespace {

inline void
poaRowPassVec(const PoaRowPassArgs& a)
{
    constexpr u32 kL = kI32Lanes;
    const VecI32 match_v = vSet1I32(a.match);
    const VecI32 mismatch_v = vSet1I32(a.mismatch);
    const VecI32 gap_v = vSet1I32(a.gap);
    const VecI32 base_v = vSet1I32(a.base);
    const VecI32 four_v = vSet1I32(4);
    const VecI32 tb_diag_v = vSet1I32(a.tb_diag);
    const VecI32 tb_del_v = vSet1I32(a.tb_del);

    u32 j = 1;
    for (; j + kL - 1 <= a.n; j += kL) {
        const VecI32 c = vLoadBytesI32(a.codes + (j - 1));
        const VecI32 is_match = vAndI32(vCmpEqI32(c, base_v),
                                        vCmpGtI32(four_v, c));
        const VecI32 sub =
            vSelectI32(is_match, match_v, mismatch_v);
        const VecI32 diag =
            vAddI32(vLoadI32(a.pred + (j - 1)), sub);
        const VecI32 del = vAddI32(vLoadI32(a.pred + j), gap_v);

        VecI32 best;
        VecI32 tb;
        if (a.first) {
            // diag seeds the row unconditionally (always beats the
            // -inf a fresh row would hold); best/tb32 are not read.
            best = diag;
            tb = tb_diag_v;
        } else {
            best = vLoadI32(a.best + j);
            tb = vLoadI32(a.tb32 + j);
            const VecI32 gt = vCmpGtI32(diag, best);
            best = vMaxI32(best, diag);
            tb = vSelectI32(gt, tb_diag_v, tb);
        }
        const VecI32 gt = vCmpGtI32(del, best);
        best = vMaxI32(best, del);
        tb = vSelectI32(gt, tb_del_v, tb);
        vStoreI32(a.best + j, best);
        vStoreI32(a.tb32 + j, tb);
    }
    for (; j <= a.n; ++j) {
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

inline void
poaInsScanVec(const PoaInsScanArgs& a)
{
    constexpr u32 kL = kI32Lanes;
    // Ramp r[l] = l * gap: y = best - r turns the "+gap per column"
    // chain into a plain running max (max-plus scan), and the carry
    // from the previous chunk becomes the constant carry + gap.
    alignas(32) i32 ramp[kL];
    for (u32 l = 0; l < kL; ++l) {
        ramp[l] = static_cast<i32>(l) * a.gap;
    }
    const VecI32 ramp_v = vLoadI32(ramp);
    const VecI32 ninf_v =
        vSet1I32(std::numeric_limits<i32>::min());
    const VecI32 tb_ins_v = vSet1I32(a.tb_ins);

    u32 j = 1;
    for (; j + kL - 1 <= a.n; j += kL) {
        const VecI32 pre = vLoadI32(a.best + j);
        const VecI32 y = vSubI32(pre, ramp_v);
        VecI32 s = vMaxI32(y, vShiftLanesUp<1>(y, ninf_v));
        s = vMaxI32(s, vShiftLanesUp<2>(s, ninf_v));
        if constexpr (kL == 8) {
            s = vMaxI32(s, vShiftLanesUp<4>(s, ninf_v));
        }
        // best[j - 1] is final: its insertion chain reaches lane l as
        // carry + (l + 1) gap = carry + gap in y space.
        s = vMaxI32(s, vSet1I32(a.best[j - 1] + a.gap));
        // Strictly greater in y space == the scalar "ins > best[j]"
        // test (ties keep the non-insertion candidate).
        const VecI32 ins_won = vCmpGtI32(s, y);
        vStoreI32(a.best + j, vAddI32(s, ramp_v));
        const VecI32 tb =
            vSelectI32(ins_won, tb_ins_v, vLoadI32(a.tb32 + j));
        alignas(32) i32 tb_lanes[kL];
        vStoreI32(tb_lanes, tb);
        for (u32 l = 0; l < kL; ++l) {
            a.tb[j + l] = static_cast<u8>(tb_lanes[l]);
        }
    }
    for (; j <= a.n; ++j) {
        const i32 ins = a.best[j - 1] + a.gap;
        if (ins > a.best[j]) {
            a.best[j] = ins;
            a.tb[j] = static_cast<u8>(a.tb_ins);
        } else {
            a.tb[j] = static_cast<u8>(a.tb32[j]);
        }
    }
}

} // namespace

} // namespace gb::simd
