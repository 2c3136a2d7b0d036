/**
 * @file
 * Lane-generic anti-diagonal banded-SW kernel for one pair,
 * instantiated once per ISA (see vec.h for the inclusion protocol)
 * over saturating i16 lanes (pairs i16Exact() admits) and exact i32
 * lanes (everything else).
 *
 * The sweep runs over anti-diagonals k = i + j. Slot i of the buffers
 * of anti-diagonal k holds cell (i, k - i), so the predecessors of a
 * cell are plain vector loads:
 *
 *   H(i-1, j-1) <- H[k-2][i-1]   H(i-1, j), E(i-1, j) <- [k-1][i-1]
 *   F entering (i, j) from (i, j-1) <- F[k-1][i]
 *
 * and every cell evaluates bandedSwScalar()'s recurrence as written:
 * no serial term, no parameter precondition. F[k][i] is the running F
 * the scalar kernel holds after cell (i, j), i.e. the F of (i, j+1).
 * The query is read ascending and the target through a reversed copy,
 * so both substitution operands are contiguous byte loads.
 *
 * Band geometry (docs/simd.md, "bsw: one pair on anti-diagonals"): the
 * cells of anti-diagonal k are rows [ilo(k), ihi(k)]. Vector chunks
 * overrun ihi by up to W - 1 slots and nothing repairs them. A cell
 * in the band reads only band cells and two edge slots of anti-diagonal
 * k - 1, written before the chunks of k and only when a cell reads
 * them:
 *  - ilo(k-1) - 1, the cell above the band or on row 0 (H is the
 *    scalar kernel's row-0 value or kNegInf, E is kNegInf), read when
 *    ilo did not move, and on row 0 also as the diagonal of k + 1;
 *  - ihi(k) = ihi(k-1) + 1, when row ihi(k) enters the band: the cell
 *    left of the band or on column 0. F is the F the scalar kernel
 *    enters the row with, and on column 0 H is H(i, 0), the diagonal
 *    of (i + 1, 1).
 *
 * Rows are scored as they complete. Lanes keep a per-row maximum and
 * the anti-diagonal that first reached it (j rises with k along a row,
 * so a strict `>` keeps the first j); a row's slot is reset when the
 * row enters the band, which also discards what earlier overrun
 * chunks wrote there. Row i is complete after anti-diagonal
 * i + jhi(i), and is replayed in the scalar kernel's order: score,
 * cell_updates, z-drop. The sweep stops at the first abort; rows past
 * the band's end are empty and decide `aborted` once.
 */
#include <algorithm>
#include <limits>
#include <vector>

#include "simd/engines_internal.h"
#include "simd/vec.h"

namespace gb::simd::detail {

namespace {

/** The scalar kernel's minus infinity. */
constexpr i32 kNegInf = -(1 << 29);

/** The vec.h operations of one lane type, under one set of names. */
template <typename T>
struct BswVec;

/**
 * Saturating i16 lanes. i16Exact() keeps every value a band cell
 * derives from band cells inside the range; a value derived from
 * kNegInf only ever loses a max, so INT16_MIN stands in for it.
 */
template <>
struct BswVec<i16>
{
    using V = VecI16;
    static constexpr i32 kW = kI16Lanes;
    static constexpr i16 kNone = std::numeric_limits<i16>::min();
    static i16 lane(i32 v)
    {
        return v <= kNone ? kNone : static_cast<i16>(v);
    }
    static V set1(i32 x) { return vSet1I16(static_cast<i16>(x)); }
    static V load(const i16* p) { return vLoadI16(p); }
    static void store(i16* p, V v) { vStoreI16(p, v); }
    static V add(V a, V b) { return vAddsI16(a, b); }
    static V sub(V a, V b) { return vSubsI16(a, b); }
    static V max(V a, V b) { return vMaxI16(a, b); }
    static V gt(V a, V b) { return vCmpGtI16(a, b); }
    static V select(V mask, V a, V b) { return vSelectI16(mask, a, b); }
    static V byteEq(const u8* a, const u8* b) { return vByteEqI16(a, b); }
};

/** Exact i32 lanes: the scalar kernel's arithmetic, kNegInf included. */
template <>
struct BswVec<i32>
{
    using V = VecI32;
    static constexpr i32 kW = kI32Lanes;
    static constexpr i32 kNone = kNegInf;
    static i32 lane(i32 v) { return v; }
    static V set1(i32 x) { return vSet1I32(x); }
    static V load(const i32* p) { return vLoadI32(p); }
    static void store(i32* p, V v) { vStoreI32(p, v); }
    static V add(V a, V b) { return vAddI32(a, b); }
    static V sub(V a, V b) { return vSubI32(a, b); }
    static V max(V a, V b) { return vMaxI32(a, b); }
    static V gt(V a, V b) { return vCmpGtI32(a, b); }
    static V select(V mask, V a, V b) { return vSelectI32(mask, a, b); }
    static V byteEq(const u8* a, const u8* b) { return vByteEqI32(a, b); }
};

template <typename T>
SwResult
bswPair(std::span<const u8> query, std::span<const u8> target,
        const SwParams& p)
{
    using Ops = BswVec<T>;
    using V = typename Ops::V;
    constexpr i32 W = Ops::kW;
    const i32 m = static_cast<i32>(query.size());
    const i32 n = static_cast<i32>(target.size());
    const i32 dmin = -p.band_width;
    const i32 dmax = p.band_width + std::max(0, n - m);
    const i32 oe = p.gap_open + p.gap_extend;

    // Query codes and the reversed target, padded for the overrun
    // lanes. N (any code >= 4) is 0xFE in the query and 0xFF in the
    // target, so equal lanes are equal bases.
    thread_local std::vector<u8> codes;
    codes.assign(static_cast<size_t>(m + n) + 2 * W, u8{0xFE});
    u8* const qc = codes.data();
    u8* const trev = codes.data() + m + W;
    for (i32 i = 0; i < m; ++i) qc[i] = query[i] < 4 ? query[i] : 0xFE;
    for (i32 j = 0; j < n; ++j) {
        trev[n - 1 - j] = target[j] < 4 ? target[j] : 0xFF;
    }
    std::fill_n(trev + n, W, u8{0xFF});

    // H on k-2, k-1, k; E and F on k-1, k; per-row max and argmax.
    // Slots 0..m + 1 plus the overrun of the last chunk.
    const size_t len = static_cast<size_t>(m) + 2 + W;
    thread_local std::vector<T> cells;
    cells.assign(9 * len, Ops::kNone);
    T* h[3] = {cells.data(), cells.data() + len, cells.data() + 2 * len};
    T* e[2] = {cells.data() + 3 * len, cells.data() + 4 * len};
    T* f[2] = {cells.data() + 5 * len, cells.data() + 6 * len};
    T* const row_max = cells.data() + 7 * len;
    T* const row_arg = cells.data() + 8 * len;

    const auto ilo = [&](i32 k) {
        return std::max({1, k - n, (k - dmax + 1) >> 1});
    };
    const auto ihi = [&](i32 k) {
        return std::min({m, k - 1, (k - dmin) >> 1});
    };
    const auto jlo = [&](i32 i) { return std::max(1, i + dmin); };
    const auto jhi = [&](i32 i) { return std::min(n, i + dmax); };
    // bandedSwScalar()'s boundary values H(i, 0) and H(0, j) for
    // i, j >= 1, in its i32 arithmetic; H(0, 0) is set below.
    const auto h_col_zero = [&](i32 i) -> i32 {
        if (p.local) return 0;
        return -i >= dmin ? -p.gap_open - i * p.gap_extend : kNegInf;
    };
    const auto h_row_zero = [&](i32 j) -> i32 {
        if (j > std::min(n, dmax)) return kNegInf;
        return p.local ? 0 : -p.gap_open - j * p.gap_extend;
    };

    const V match_v = Ops::set1(p.match);
    const V mismatch_v = Ops::set1(p.mismatch);
    const V ext_v = Ops::set1(p.gap_extend);
    const V oe_v = Ops::set1(oe);
    const V floor_v =
        Ops::set1(p.local ? 0 : std::numeric_limits<T>::min());

    SwResult result;
    // Rows past ilast have an empty band.
    const i32 ilast = std::min(m, n - dmin);
    i32 next_row = 1;
    i32 next_done = 1 + jhi(1); // anti-diagonal that completes next_row
    i32 prev_lo = ilo(1);
    i32 prev_hi = ihi(1);
    h[0][0] = Ops::lane(0); // H(0, 0)
    for (i32 k = 2;; ++k) {
        const i32 lo = ilo(k);
        const i32 hi = ihi(k);
        // Edge slots of anti-diagonal k - 1, written only where a cell
        // of k (or of k + 1, for the diagonal) reads them. Row 0 is
        // read only while ilo stays 1.
        if (lo == prev_lo) {
            h[1][prev_lo - 1] =
                Ops::lane(prev_lo == 1 ? h_row_zero(k - 1) : kNegInf);
            e[0][prev_lo - 1] = Ops::lane(kNegInf);
        }
        if (hi > prev_hi) {
            // Row hi enters the band: the F it enters with, H(hi, 0)
            // for the diagonal of (hi + 1, 1), and a fresh row maximum.
            const bool col0 = hi == k - 1;
            f[0][hi] = Ops::lane(col0 ? h_col_zero(hi) - oe : kNegInf);
            if (col0) h[1][hi] = Ops::lane(h_col_zero(hi));
            row_max[hi] = Ops::lane(kNegInf);
        }
        prev_lo = lo;
        prev_hi = hi;
        const u8* tk = trev + (n - k);
        const V k_v = Ops::set1(k);
        for (i32 i0 = lo; i0 <= hi; i0 += W) {
            const V diag = Ops::load(h[0] + i0 - 1);
            const V up = Ops::load(h[1] + i0 - 1);
            const V f_in = Ops::load(f[0] + i0);
            const V sub = Ops::select(Ops::byteEq(qc + i0 - 1, tk + i0),
                                      match_v, mismatch_v);
            const V ev = Ops::max(Ops::sub(Ops::load(e[0] + i0 - 1), ext_v),
                                  Ops::sub(up, oe_v));
            const V hv =
                Ops::max(Ops::max(Ops::add(diag, sub), ev),
                         Ops::max(f_in, floor_v));
            Ops::store(h[2] + i0, hv);
            Ops::store(e[1] + i0, ev);
            Ops::store(f[1] + i0, Ops::max(Ops::sub(f_in, ext_v),
                                           Ops::sub(hv, oe_v)));
            // The row's best so far and the anti-diagonal it was on.
            const V best = Ops::load(row_max + i0);
            Ops::store(row_max + i0, Ops::max(best, hv));
            Ops::store(row_arg + i0, Ops::select(Ops::gt(hv, best), k_v,
                                                 Ops::load(row_arg + i0)));
        }
        std::swap(h[0], h[1]);
        std::swap(h[1], h[2]);
        std::swap(e[0], e[1]);
        std::swap(f[0], f[1]);
        if (k < next_done) continue;

        // Row next_row is complete: i + jhi(i) rises with i, so one
        // anti-diagonal completes at most one row.
        const i32 i = next_row;
        const i32 row_best = row_max[i];
        if (row_best > result.score) {
            result.score = row_best;
            result.query_end = i;
            result.target_end = row_arg[i] - i;
        }
        result.cell_updates += static_cast<u64>(jhi(i) - jlo(i) + 1);
        if (row_best < result.score - p.zdrop) {
            result.aborted = true;
            return result;
        }
        if (++next_row > ilast) break;
        next_done = next_row + jhi(next_row);
    }
    // An empty row's best is kNegInf, and so is every later row's.
    if (ilast < m && kNegInf < result.score - p.zdrop) {
        result.aborted = true;
    }
    return result;
}

/** IsaKernels::bsw_pair: i16 lanes when `i16_lanes`, i32 otherwise. */
SwResult
bswPairVec(std::span<const u8> query, std::span<const u8> target,
           const SwParams& params, bool i16_lanes)
{
    return i16_lanes ? bswPair<i16>(query, target, params)
                     : bswPair<i32>(query, target, params);
}

} // namespace

} // namespace gb::simd::detail
