/**
 * @file
 * Banded affine-gap Smith-Waterman — the bsw kernel.
 *
 * Models the banded Smith-Waterman used for seed extension in
 * BWA-MEM/BWA-MEM2 (paper §III, Eq. 1): affine gap penalties, a band of
 * diagonals around the corridor connecting (0,0) to (m,n), and early
 * termination (z-drop) when the alignment score falls too far below the
 * best seen. Entry points:
 *
 *  - bandedSw(): one pair through the runtime-dispatched intra-pair
 *    SIMD row engine (AVX2 / SSE4.2 / scalar, defined in gb::simd,
 *    src/simd/bsw_engine.cc). The production path for single pairs,
 *    e.g. seed extension inside a pipeline;
 *  - bandedSwScalar(): the same recurrence one cell at a time, aborting
 *    as soon as z-drop fires. It is the test oracle every engine is
 *    bit-identical to, the instrumented characterize() path and the
 *    "scalar" baseline of the paper's Fig. 3 discussion;
 *  - BatchSwAligner: 16 pairs per batch processed in lockstep, a model
 *    of BWA-MEM2's inter-sequence vectorization (the executing engine
 *    is simd::bswAlign). Lanes that finish early (shorter sequences or
 *    z-drop) idle until the whole batch completes, which is exactly why
 *    the paper measures 2.2x more cell updates for the vectorized
 *    kernel.
 */
#ifndef GB_ALIGN_BANDED_SW_H
#define GB_ALIGN_BANDED_SW_H

#include <algorithm>
#include <span>
#include <vector>

#include "arch/probe.h"
#include "util/common.h"

namespace gb {

/** Scoring and banding parameters (BWA-MEM-like defaults). */
struct SwParams
{
    i32 match = 2;
    i32 mismatch = -4;
    i32 gap_open = 6;   ///< penalty q (positive)
    i32 gap_extend = 1; ///< penalty e (positive)
    i32 band_width = 51;
    i32 zdrop = 100;    ///< abort when row best < global best - zdrop
    bool local = true;  ///< floor scores at 0 (classic Smith-Waterman)
};

/** Result of one pairwise alignment. */
struct SwResult
{
    i32 score = 0;
    i32 query_end = 0;  ///< 1-based end row of the best cell
    i32 target_end = 0; ///< 1-based end column of the best cell
    u64 cell_updates = 0;
    bool aborted = false; ///< z-drop fired
};

namespace detail {

inline i32
substScore(const SwParams& p, u8 a, u8 b)
{
    if (a >= 4 || b >= 4) return p.mismatch; // N never matches
    return a == b ? p.match : p.mismatch;
}

} // namespace detail

/**
 * Align one pair with the banded affine recurrence.
 *
 * @param query  2-bit codes, length m.
 * @param target 2-bit codes, length n.
 */
template <typename Probe>
SwResult
bandedSwScalar(std::span<const u8> query, std::span<const u8> target,
               const SwParams& p, Probe& probe)
{
    const i32 m = static_cast<i32>(query.size());
    const i32 n = static_cast<i32>(target.size());
    SwResult result;
    if (m == 0 || n == 0) return result;

    // Diagonal corridor: d = j - i in [dmin, dmax].
    const i32 dmin = -p.band_width;
    const i32 dmax = p.band_width + std::max(0, n - m);
    const i32 width = dmax - dmin + 1;
    constexpr i32 kNegInf = -(1 << 29);

    // Rolling rows indexed by diagonal offset b = j - i - dmin.
    std::vector<i32> h_prev(width + 2, kNegInf);
    std::vector<i32> h_curr(width + 2, kNegInf);
    std::vector<i32> e_col(width + 2, kNegInf);

    // H(i, 0) boundary value (global mode), valid inside the band.
    auto h_col_zero = [&](i32 i) -> i32 {
        if (i == 0) return 0;
        if (p.local) return 0;
        return -i >= dmin ? -p.gap_open - i * p.gap_extend : kNegInf;
    };

    // Row 0: H(0, j) for j in band of i=0.
    for (i32 b = 0; b < width; ++b) {
        const i32 j = b + dmin; // i = 0
        if (j < 0 || j > n) continue;
        if (p.local) {
            h_prev[b + 1] = 0;
        } else {
            h_prev[b + 1] =
                j == 0 ? 0 : -p.gap_open - j * p.gap_extend;
        }
    }

    for (i32 i = 1; i <= m; ++i) {
        const u8 qc = query[i - 1];
        probe.load(&query[i - 1], 1);
        i32 row_best = kNegInf;
        i32 f = kNegInf; // gap-in-target running term
        const i32 jlo = std::max(1, i + dmin);
        const i32 jhi = std::min(n, i + dmax);
        // H(i, 0) exists only when diagonal -i is inside the band.
        const i32 h_i0 = h_col_zero(i);
        if (jlo == 1) {
            // F entering from column 0.
            f = h_i0 - p.gap_open - p.gap_extend;
        }

        for (i32 j = jlo; j <= jhi; ++j) {
            const i32 b = j - i - dmin;
            probe.load(&target[j - 1], 1);
            // Diagonal predecessor H(i-1, j-1) shares the diagonal
            // offset b; vertical predecessor H(i-1, j) sits at b+1.
            const i32 h_diag =
                j == 1 ? h_col_zero(i - 1) : h_prev[b + 1];
            const i32 h_up = h_prev[b + 1 + 1];

            // E: gap in query (vertical move), tracked per diagonal.
            i32 e = std::max(e_col[b + 1 + 1] - p.gap_extend,
                             h_up - p.gap_open - p.gap_extend);
            i32 h = h_diag + detail::substScore(p, qc, target[j - 1]);
            h = std::max(h, e);
            h = std::max(h, f);
            if (p.local) h = std::max(h, 0);
            h_curr[b + 1] = h;
            e_col[b + 1] = e;
            f = std::max(f - p.gap_extend,
                         h - p.gap_open - p.gap_extend);
            ++result.cell_updates;
            probe.op(OpClass::kIntAlu, 8);
            probe.store(&h_curr[b + 1], 4);

            if (h > result.score) {
                result.score = h;
                result.query_end = i;
                result.target_end = j;
            }
            row_best = std::max(row_best, h);
        }
        std::swap(h_prev, h_curr);
        std::fill(h_curr.begin(), h_curr.end(), kNegInf);

        probe.branch(3, row_best < result.score - p.zdrop);
        if (row_best < result.score - p.zdrop) {
            result.aborted = true;
            break;
        }
    }
    return result;
}

/**
 * Align one pair with the dispatched intra-pair row engine; score, end
 * cell, abort flag and cell_updates are bit-identical to
 * bandedSwScalar() at every GB_SIMD_LEVEL, in local and global mode.
 * Defined in gb::simd, so callers link gb::simd (or gb::all).
 */
SwResult bandedSw(std::span<const u8> query, std::span<const u8> target,
                  const SwParams& params = {});

/** Work accounting for a lockstep batch (paper Fig. 3). */
struct BatchSwStats
{
    u64 vector_slots = 0;   ///< lockstep cell steps executed
    u32 lanes = 16;
    u64 useful_cells = 0;   ///< cells a scalar run would compute

    /** Total lane-cell updates including idle lanes. */
    u64 totalCellUpdates() const { return vector_slots * lanes; }

    /** Vectorized / scalar cell-update ratio (paper reports ~2.2x). */
    double
    overworkRatio() const
    {
        return useful_cells
                   ? static_cast<double>(totalCellUpdates()) /
                         static_cast<double>(useful_cells)
                   : 0.0;
    }
};

/** One query/target pair for batch alignment. */
struct SwPair
{
    std::span<const u8> query;
    std::span<const u8> target;
};

/**
 * Inter-sequence lockstep aligner.
 *
 * Pairs should be pre-sorted by length (as BWA-MEM2 does) so lanes in a
 * batch carry similar work; align() processes them 16 at a time.
 */
class BatchSwAligner
{
  public:
    static constexpr u32 kLanes = 16; ///< AVX2 x 16-bit lanes

    explicit BatchSwAligner(const SwParams& params) : params_(params) {}

    /**
     * Align all pairs; results in input order.
     *
     * @param[out] stats Optional lockstep work accounting.
     */
    template <typename Probe>
    std::vector<SwResult>
    align(std::span<const SwPair> pairs, Probe& probe,
          BatchSwStats* stats = nullptr) const
    {
        std::vector<SwResult> results(pairs.size());
        BatchSwStats local_stats;
        for (size_t base = 0; base < pairs.size(); base += kLanes) {
            const u32 lanes = static_cast<u32>(
                std::min<size_t>(kLanes, pairs.size() - base));
            alignBatch(pairs.subspan(base, lanes), &results[base],
                       probe, local_stats);
        }
        if (stats) *stats = local_stats;
        return results;
    }

  private:
    /**
     * Lockstep core: all lanes advance through (row, band-offset)
     * slots together; a slot is executed if any lane still needs it.
     */
    template <typename Probe>
    void
    alignBatch(std::span<const SwPair> pairs, SwResult* out,
               Probe& probe, BatchSwStats& stats) const
    {
        const u32 lanes = static_cast<u32>(pairs.size());
        const SwParams& p = params_;
        constexpr i32 kNegInf = -(1 << 29);

        struct Lane
        {
            i32 m, n, dmin, dmax, width;
            std::vector<i32> h_prev, h_curr, e_col;
            bool done = false;
        };
        std::vector<Lane> st(lanes);
        i32 max_rows = 0;
        i32 max_width = 0;
        for (u32 l = 0; l < lanes; ++l) {
            Lane& lane = st[l];
            lane.m = static_cast<i32>(pairs[l].query.size());
            lane.n = static_cast<i32>(pairs[l].target.size());
            lane.dmin = -p.band_width;
            lane.dmax = p.band_width + std::max(0, lane.n - lane.m);
            lane.width = lane.dmax - lane.dmin + 1;
            lane.h_prev.assign(lane.width + 2, kNegInf);
            lane.h_curr.assign(lane.width + 2, kNegInf);
            lane.e_col.assign(lane.width + 2, kNegInf);
            lane.done = lane.m == 0 || lane.n == 0;
            for (i32 b = 0; b < lane.width; ++b) {
                const i32 j = b + lane.dmin;
                if (j < 0 || j > lane.n) continue;
                lane.h_prev[b + 1] =
                    p.local ? 0
                            : (j == 0 ? 0
                                      : -p.gap_open - j * p.gap_extend);
            }
            max_rows = std::max(max_rows, lane.m);
            max_width = std::max(max_width, lane.width);
        }

        std::vector<i32> f(lanes, kNegInf);
        std::vector<i32> row_best(lanes, kNegInf);

        for (i32 i = 1; i <= max_rows; ++i) {
            bool any_active = false;
            for (u32 l = 0; l < lanes; ++l) {
                Lane& lane = st[l];
                row_best[l] = kNegInf;
                if (lane.done || i > lane.m) continue;
                any_active = true;
                const i32 jlo = std::max(1, i + lane.dmin);
                f[l] = jlo == 1
                           ? (p.local ? 0 : hColZero(lane.dmin, i)) -
                                 p.gap_open - p.gap_extend
                           : kNegInf;
            }
            if (!any_active) break;

            for (i32 b = 0; b < max_width; ++b) {
                bool slot_used = false;
                u32 active_lanes = 0;
                // Inner lane loop: the "vector" dimension.
                for (u32 l = 0; l < lanes; ++l) {
                    Lane& lane = st[l];
                    if (lane.done || i > lane.m || b >= lane.width) {
                        continue;
                    }
                    const i32 j = b + lane.dmin + i;
                    if (j < 1 || j > lane.n) continue;
                    slot_used = true;
                    ++active_lanes;

                    const u8 qc = pairs[l].query[i - 1];
                    const u8 tc = pairs[l].target[j - 1];
                    const i32 h_diag =
                        j == 1
                            ? (p.local ? 0 : hColZero(lane.dmin, i - 1))
                            : lane.h_prev[b + 1];
                    const i32 h_up = lane.h_prev[b + 2];
                    const i32 e =
                        std::max(lane.e_col[b + 2] - p.gap_extend,
                                 h_up - p.gap_open - p.gap_extend);
                    i32 h = h_diag + detail::substScore(p, qc, tc);
                    h = std::max(h, e);
                    h = std::max(h, f[l]);
                    if (p.local) h = std::max(h, 0);
                    lane.h_curr[b + 1] = h;
                    lane.e_col[b + 1] = e;
                    f[l] = std::max(f[l] - p.gap_extend,
                                    h - p.gap_open - p.gap_extend);

                    SwResult& r = out[l];
                    ++r.cell_updates;
                    if (h > r.score) {
                        r.score = h;
                        r.query_end = i;
                        r.target_end = j;
                    }
                    row_best[l] = std::max(row_best[l], h);
                }
                if (slot_used) {
                    ++stats.vector_slots;
                    stats.useful_cells += active_lanes;
                    // One vector op bundle per lockstep slot: blends,
                    // adds, maxes across the 16-lane registers.
                    probe.op(OpClass::kVecAlu, 10);
                    probe.op(OpClass::kIntAlu, 2);
                    probe.load(&st[0].h_prev[b + 1], 4 * lanes);
                    probe.store(&st[0].h_curr[b + 1], 4 * lanes);
                    probe.branch(4, active_lanes == lanes);
                }
            }

            for (u32 l = 0; l < lanes; ++l) {
                Lane& lane = st[l];
                if (lane.done || i > lane.m) continue;
                std::swap(lane.h_prev, lane.h_curr);
                std::fill(lane.h_curr.begin(), lane.h_curr.end(),
                          kNegInf);
                if (row_best[l] < out[l].score - p.zdrop) {
                    out[l].aborted = true;
                    lane.done = true; // lane idles for the rest
                } else if (i == lane.m) {
                    lane.done = true;
                }
            }
        }
        stats.lanes = kLanes;
    }

    /** H(i, 0) in global mode, valid only while inside the band. */
    i32
    hColZero(i32 dmin, i32 i) const
    {
        if (i == 0) return 0;
        constexpr i32 kNegInf = -(1 << 29);
        return -i >= dmin
                   ? -params_.gap_open - i * params_.gap_extend
                   : kNegInf;
    }

    SwParams params_;
};

} // namespace gb

#endif // GB_ALIGN_BANDED_SW_H
