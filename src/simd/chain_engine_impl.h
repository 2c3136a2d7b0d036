/**
 * @file
 * ISA-generic implementation of the vectorized chaining DP.
 *
 * Compiled once per ISA, by isa_sse4.cc and isa_avx2.cc (see vec.h).
 *
 * Scheme (mm2-fast): for each anchor i the predecessor window
 * [j_lo, i) is evaluated kI32Lanes candidates at a time against SoA
 * copies of the anchor coordinates. One lane computes, entirely in
 * 32-bit lanes,
 *
 *   dr = t[i]-t[j], dq = q[i]-q[j], dd = |dr-dq|
 *   valid = dr>0 & dq>0 & dr<=max_dist & dq<=max_dist
 *                & dd<=max_band & j<i
 *   alpha = min(min(dr,dq), span_i)
 *   beta  = dd ? trunc((gap_scale*span_i) * float(dd))
 *                + (ilog2(dd) >> 1)
 *           : 0
 *   cand  = valid ? f[j] + alpha - beta : INT32_MIN
 *
 * matching the scalar expression bit for bit:
 *   - the linear term uses one float multiply against the precomputed
 *     scalar product gap_scale*float(span_i), the same left-to-right
 *     grouping and cvttps truncation the scalar cast performs;
 *   - ilog2 is exact: a bit-smear isolates the top set bit, whose
 *     float conversion is lossless, and the IEEE exponent field is
 *     extracted directly (no cvtdq2ps rounding error possible).
 *
 * The window is walked in DESCENDING chunks with a per-lane
 * strictly-greater running (score, j) pair, so each lane retains the
 * largest j among its maxima; the horizontal reduce then takes the
 * score max and, among equal lanes, the largest j — exactly the scalar
 * loop's tie-break (descending j, strict replacement). A candidate
 * must still strictly beat the anchor's own span to be taken.
 *
 * The clamped lowest chunk may revisit j values already seen by the
 * chunk above it; duplicates are harmless under a max reduce (the
 * (cand, j) pairs are genuine). Lanes j >= i read the zero-initialized
 * pad of f_pad and are masked off by the j<i predicate.
 */
#include <climits>

#include "chain/chain.h"
#include "simd/vec.h"
#include "util/common.h"

namespace gb::simd {

namespace {

/** Per-lane floor(log2(x)) for x >= 1 (garbage lanes permitted —
 *  callers mask them). Bit-smear to a power of two, then read the
 *  IEEE-754 exponent of its exact float conversion. */
inline VecI32
vIlog2I32(VecI32 x)
{
    VecI32 sm = vOrI32(x, vSrliI32<1>(x));
    sm = vOrI32(sm, vSrliI32<2>(sm));
    sm = vOrI32(sm, vSrliI32<4>(sm));
    sm = vOrI32(sm, vSrliI32<8>(sm));
    sm = vOrI32(sm, vSrliI32<16>(sm));
    const VecI32 pow2 = vSubI32(sm, vSrliI32<1>(sm));
    const VecI32 bits = vF32Bits(vToF32(pow2));
    return vSubI32(vSrliI32<23>(bits), vSet1I32(127));
}

inline void
chainDpVec(const Anchor* anchors, const i32* tpos, const i32* qpos,
           u32 n, const ChainParams& p, i32* f_pad, i32* parent)
{
    constexpr u32 kL = kI32Lanes;
    // max_dist / max_band can exceed the representable-coordinate
    // bound; clamping the splats to 2^30 preserves every comparison
    // because |dr|, |dq|, dd < 2^30 for in-gate anchors.
    constexpr u32 kClamp = u32{1} << 30;
    const VecI32 md_v = vSet1I32(static_cast<i32>(
        p.max_dist < kClamp ? p.max_dist : kClamp));
    const VecI32 band_v = vSet1I32(static_cast<i32>(
        p.max_band < kClamp ? p.max_band : kClamp));
    const VecI32 zero_v = vSet1I32(0);
    const VecI32 neg_inf_v = vSet1I32(INT32_MIN);
    const VecI32 neg_one_v = vSet1I32(-1);

    for (u32 i = 0; i < n; ++i) {
        const Anchor& ai = anchors[i];
        const i32 span_i = static_cast<i32>(ai.span);
        const u32 j_lo = i > p.pred_window ? i - p.pred_window : 0;
        i32 best = span_i;
        i32 best_j = -1;
        if (j_lo < i) {
            const VecI32 ti_v = vSet1I32(tpos[i]);
            const VecI32 qi_v = vSet1I32(qpos[i]);
            const VecI32 span_v = vSet1I32(span_i);
            const VecI32 i_v = vSet1I32(static_cast<i32>(i));
            // Same grouping as the scalar beta:
            // (gap_scale * float(span)) * float(dd).
            const VecF32 scale_v = vSet1F32(
                p.gap_scale * static_cast<float>(ai.span));

            VecI32 best_v = neg_inf_v;
            VecI32 bestj_v = neg_one_v;
            i32 jb = static_cast<i32>(i) - static_cast<i32>(kL);
            for (;;) {
                const bool last = jb <= static_cast<i32>(j_lo);
                if (jb < static_cast<i32>(j_lo)) {
                    jb = static_cast<i32>(j_lo);
                }
                const VecI32 j_v = vIotaI32(jb);
                const VecI32 tj = vLoadI32(tpos + jb);
                const VecI32 qj = vLoadI32(qpos + jb);
                const VecI32 fj = vLoadI32(f_pad + jb);
                const VecI32 dr = vSubI32(ti_v, tj);
                const VecI32 dq = vSubI32(qi_v, qj);
                const VecI32 dd = vAbsI32(vSubI32(dr, dq));

                VecI32 ok = vAndI32(vCmpGtI32(dr, zero_v),
                                    vCmpGtI32(dq, zero_v));
                ok = vAndNotI32(vCmpGtI32(dr, md_v), ok);
                ok = vAndNotI32(vCmpGtI32(dq, md_v), ok);
                ok = vAndNotI32(vCmpGtI32(dd, band_v), ok);
                ok = vAndI32(ok, vCmpGtI32(i_v, j_v));

                const VecI32 alpha =
                    vMinI32(vMinI32(dr, dq), span_v);
                const VecI32 lin =
                    vTruncToI32(vMulF32(scale_v, vToF32(dd)));
                const VecI32 log_part = vSrliI32<1>(vIlog2I32(dd));
                // dd == 0 -> beta 0 (the scalar skips the whole term).
                const VecI32 beta = vAndNotI32(
                    vCmpEqI32(dd, zero_v), vAddI32(lin, log_part));

                const VecI32 cand = vSelectI32(
                    ok, vSubI32(vAddI32(fj, alpha), beta),
                    neg_inf_v);
                const VecI32 gt = vCmpGtI32(cand, best_v);
                best_v = vMaxI32(best_v, cand);
                bestj_v = vSelectI32(gt, j_v, bestj_v);
                if (last) break;
                jb -= static_cast<i32>(kL);
            }
            const i32 m = vHMaxI32(best_v);
            if (m > span_i) {
                best = m;
                best_j = vHMaxI32(vSelectI32(
                    vCmpEqI32(best_v, vSet1I32(m)), bestj_v,
                    neg_one_v));
            }
        }
        f_pad[i] = best;
        parent[i] = best_j;
    }
}

} // namespace

} // namespace gb::simd
