/**
 * @file
 * Width-generic intra-pair banded-SW row engine, instantiated once per
 * ISA.
 *
 * Included by bsw_row_engine_sse4.cc / bsw_row_engine_avx2.cc with the
 * matching GB_SIMD_TARGET_* macro defined. One pair at a time: each DP
 * row of the band is processed kI32Lanes cells per step in the
 * diagonal-offset frame bandedSwScalar() uses (slot b + 1 holds band
 * offset b = j - i - dmin), so the diagonal, vertical and E
 * predecessors are plain loads from the previous row at b + 1 / b + 2
 * and the target codes are one contiguous load.
 *
 * The only serial term is F (gap in the target). With gap_open >= 0,
 *
 *   f[j] = max(f[j-1] - e, hpre[j-1] - (o + e)),
 *
 * where hpre is H before the F candidate (the F candidate itself can
 * never win the second term). Adding the ramp l * e to lane l turns it
 * into an exclusive max prefix scan, done in registers with
 * vShiftLanesUp and carried between chunks as a scalar.
 *
 * Equivalence rules (docs/simd.md, "bsw: intra-pair row engine"):
 *  - the best cell of a row is the first j holding the row maximum,
 *    taken only when that maximum beats the score so far (the scalar
 *    kernel's strict `>` scan in ascending j);
 *  - lanes past the row's band store kNegInf to H and E, so the
 *    top-diagonal slot the scalar kernel relies on stays kNegInf and
 *    nothing past the band is ever read back as a score;
 *  - a row with an empty band ends the pair: its row best is kNegInf,
 *    every later row is empty as well, so the z-drop test decides
 *    `aborted` once.
 * All arithmetic is exact i32, so every cell equals the scalar cell.
 */
#include <algorithm>
#include <limits>

#include "simd/engines_internal.h"
#include "simd/vec.h"

#if defined(GB_SIMD_TARGET_AVX2)
#define GB_BSW_ROW_KERNEL bswRowAvx2
#elif defined(GB_SIMD_TARGET_SSE4)
#define GB_BSW_ROW_KERNEL bswRowSse4
#endif

namespace gb::simd::detail {

SwResult
GB_BSW_ROW_KERNEL(std::span<const u8> query, std::span<const u8> target,
                  const SwParams& p, BswRowScratch& scratch)
{
    constexpr i32 kL = static_cast<i32>(kI32Lanes);
    constexpr i32 kNegInf = -(1 << 29);
    const i32 m = static_cast<i32>(query.size());
    const i32 n = static_cast<i32>(target.size());
    const i32 dmin = -p.band_width;
    const i32 dmax = p.band_width + std::max(0, n - m);
    const i32 width = dmax - dmin + 1;
    const i32 oe = p.gap_open + p.gap_extend;
    SwResult result;

    // Slots 0..width+1 as in the scalar kernel, plus kL for the loads
    // and masked stores of a partial last chunk.
    const size_t slots = static_cast<size_t>(width) + 2 + kL;
    for (auto* row : {&scratch.h_prev, &scratch.h_curr, &scratch.e_col}) {
        if (row->size() < slots) row->resize(slots);
        std::fill_n(row->begin(), slots, kNegInf);
    }
    i32* hp = scratch.h_prev.data();
    i32* hc = scratch.h_curr.data();
    i32* ec = scratch.e_col.data();

    // Target codes with N (any code >= 4) as 0xFF, which no query lane
    // value matches, padded for the last chunk's load.
    const size_t codes_len = static_cast<size_t>(n) + kL;
    if (scratch.target.size() < codes_len) scratch.target.resize(codes_len);
    u8* tcodes = scratch.target.data();
    for (i32 j = 0; j < n; ++j) {
        tcodes[j] = target[j] < 4 ? target[j] : 0xFF;
    }
    std::fill_n(tcodes + n, kL, u8{0xFF});

    auto h_col_zero = [&](i32 i) -> i32 {
        if (i == 0 || p.local) return 0;
        return -i >= dmin ? -p.gap_open - i * p.gap_extend : kNegInf;
    };
    for (i32 b = 0; b < width; ++b) {
        const i32 j = b + dmin;
        if (j < 0 || j > n) continue;
        hp[b + 1] = p.local || j == 0 ? 0 : -p.gap_open - j * p.gap_extend;
    }

    alignas(32) i32 ramp[kL];
    for (i32 l = 0; l < kL; ++l) ramp[l] = l * p.gap_extend;
    const VecI32 ramp_v = vLoadI32(ramp);
    // z = hpre - (o + e) + (l + 1) e: the F candidate of lane l in
    // ramp space.
    const VecI32 zoff_v = vAddI32(ramp_v, vSet1I32(p.gap_extend - oe));
    const VecI32 lane_v = vIotaI32(0);
    const VecI32 match_v = vSet1I32(p.match);
    const VecI32 mismatch_v = vSet1I32(p.mismatch);
    const VecI32 ext_v = vSet1I32(p.gap_extend);
    const VecI32 oe_v = vSet1I32(oe);
    const VecI32 floor_v =
        vSet1I32(p.local ? 0 : std::numeric_limits<i32>::min());
    const VecI32 neginf_v = vSet1I32(kNegInf);
    const VecI32 scan_fill_v = vSet1I32(std::numeric_limits<i32>::min());
    const i32 chunk_ext = kL * p.gap_extend;

    for (i32 i = 1; i <= m; ++i) {
        const i32 jlo = std::max(1, i + dmin);
        const i32 jhi = std::min(n, i + dmax);
        if (jlo > jhi) {
            // Empty band: row best kNegInf, and so is every later row.
            if (kNegInf < result.score - p.zdrop) result.aborted = true;
            break;
        }
        const i32 blo = jlo - i - dmin;
        const i32 cnt = jhi - jlo + 1;
        // Column 0 is never stored; the diagonal predecessor of j = 1
        // is the H(i - 1, 0) boundary value.
        if (jlo == 1) hp[blo + 1] = h_col_zero(i - 1);
        i32 carry = jlo == 1 ? h_col_zero(i) - oe : kNegInf;

        const u8 qc = query[i - 1];
        const VecI32 qc_v = vSet1I32(qc < 4 ? qc : -1);
        const i32* prev = hp + blo + 1;
        const i32* e_in = ec + blo + 2;
        i32* e_out = ec + blo + 1;
        i32* h_out = hc + blo + 1;
        const u8* tc = tcodes + (jlo - 1);

        // H and E of the kL cells at band offsets blo + t0 ..; advances
        // the F carry to the cell after the chunk.
        auto chunk = [&](i32 t0, VecI32& h, VecI32& e) {
            const VecI32 diag = vLoadI32(prev + t0);
            const VecI32 up = vLoadI32(prev + t0 + 1);
            const VecI32 sub = vSelectI32(
                vCmpEqI32(vLoadBytesI32(tc + t0), qc_v), match_v,
                mismatch_v);
            e = vMaxI32(vSubI32(vLoadI32(e_in + t0), ext_v),
                        vSubI32(up, oe_v));
            const VecI32 hpre = vMaxI32(
                vMaxI32(vAddI32(diag, sub), e), floor_v);
            const VecI32 z = vAddI32(hpre, zoff_v);
            VecI32 s = vMaxI32(z, vShiftLanesUp<1>(z, scan_fill_v));
            s = vMaxI32(s, vShiftLanesUp<2>(s, scan_fill_v));
            if constexpr (kL == 8) {
                s = vMaxI32(s, vShiftLanesUp<4>(s, scan_fill_v));
            }
            const VecI32 g = vMaxI32(vShiftLanesUp<1>(s, scan_fill_v),
                                     vSet1I32(carry));
            h = vMaxI32(hpre, vSubI32(g, ramp_v));
            carry = std::max(carry, vLastI32(s)) - chunk_ext;
        };

        VecI32 row_max = neginf_v;
        i32 t0 = 0;
        for (; t0 + kL <= cnt; t0 += kL) {
            VecI32 h;
            VecI32 e;
            chunk(t0, h, e);
            vStoreI32(h_out + t0, h);
            vStoreI32(e_out + t0, e);
            row_max = vMaxI32(row_max, h);
        }
        if (t0 < cnt) {
            VecI32 h;
            VecI32 e;
            chunk(t0, h, e);
            const VecI32 live = vCmpGtI32(vSet1I32(cnt - t0), lane_v);
            h = vSelectI32(live, h, neginf_v);
            vStoreI32(h_out + t0, h);
            vStoreI32(e_out + t0, vSelectI32(live, e, neginf_v));
            row_max = vMaxI32(row_max, h);
        }
        result.cell_updates += static_cast<u64>(cnt);

        const i32 row_best = vHMaxI32(row_max);
        if (row_best > result.score) {
            const VecI32 want = vSet1I32(row_best);
            i32 t = 0;
            for (;; t += kL) {
                const u32 hit =
                    vMaskBitsI32(vCmpEqI32(vLoadI32(h_out + t), want));
                if (hit != 0) {
                    t += __builtin_ctz(hit);
                    break;
                }
            }
            result.score = row_best;
            result.query_end = i;
            result.target_end = jlo + t;
        }
        std::swap(hp, hc);
        if (row_best < result.score - p.zdrop) {
            result.aborted = true;
            break;
        }
    }
    return result;
}

} // namespace gb::simd::detail
