#include "abea/abea.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "simd/abea_engine.h"

namespace gb {

namespace {

using simd::kAbeaFromDiag;
using simd::kAbeaFromLeft;
using simd::kAbeaFromNone;
using simd::kAbeaFromUp;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/** Band anchor: coordinates of offset 0 (the lower-left cell). */
struct BandLL
{
    i64 event_idx;
    i64 kmer_idx;
};

/**
 * One read's band DP, shared by the template and the engine: band
 * rows of `w` cells at `stride` floats apart, offset 0 at slot
 * `guard`, with traceback bytes in the same layout. The template
 * packs the rows (guard 0); the engine gives each row one -inf guard
 * slot on either side and kAbeaPad slots of tail. Rows are cleared
 * (-inf, no traceback) by the sweep, so a row is still in cache when
 * its band fills it; each is cleared one band ahead, because the
 * engine's chunk overrun past row b loads and writes back the start
 * of row b + 1.
 */
struct BandDp
{
    std::vector<u32> ranks;
    i64 n_events = 0;
    i64 n_kmers = 0;
    i64 w = 0;
    i64 guard = 0;
    i64 stride = 0;
    i64 n_bands = 0;
    float lp_stay = 0;
    float lp_skip = 0;
    float lp_step = 0;
    float lp_trim = 0;
    std::unique_ptr<float[]> band;
    std::unique_ptr<u8[]> trace;
    std::vector<BandLL> band_ll;

    float& cell(i64 b, i64 offset)
    {
        return band[static_cast<size_t>(b * stride + guard + offset)];
    }
    u8& tr(i64 b, i64 offset)
    {
        return trace[static_cast<size_t>(b * stride + guard + offset)];
    }
    i64 kmerToOffset(i64 b, i64 kmer) const
    {
        return kmer - band_ll[b].kmer_idx;
    }
    i64 eventToOffset(i64 b, i64 event) const
    {
        return band_ll[b].event_idx - event;
    }
    i64 eventAt(i64 b, i64 offset) const
    {
        return band_ll[b].event_idx - offset;
    }
    bool offsetValid(i64 offset) const { return offset >= 0 && offset < w; }
    /** Clear `count` slots from band row b's first slot on. */
    void clear(i64 b, i64 count)
    {
        const size_t at = static_cast<size_t>(b * stride);
        std::fill_n(band.get() + at, count, kNegInf);
        std::fill_n(trace.get() + at, count, kAbeaFromNone);
    }
};

/**
 * Band b as its cell fill sees it: the cell range, the anchors of
 * bands b, b-1 and b-2, and their rows at offset 0.
 */
struct BandRows
{
    i64 lo = 0; ///< cells [lo, hi)
    i64 hi = 0;
    BandLL at{};
    BandLL prev{};
    BandLL prev2{};
    float* cells = nullptr;
    u8* trace = nullptr;
    const float* prev_cells = nullptr;
    const float* prev2_cells = nullptr;
};

/**
 * Check the inputs and set up `dp` with `guard` slots on each side of
 * a band row and `tail` slots after the last; false when there are no
 * events to align.
 */
bool
initBandDp(BandDp& dp, std::span<const Event> events,
           const PoreModel& model, std::string_view ref,
           const AbeaParams& params, i64 guard, i64 tail)
{
    requireInput(ref.size() >= model.k(),
                 "abea: reference shorter than the pore-model k");
    dp.ranks = model.sequenceRanks(ref);
    dp.n_events = static_cast<i64>(events.size());
    dp.n_kmers = static_cast<i64>(dp.ranks.size());
    if (dp.n_events == 0) return false;

    // band_ranges holds u16 offsets, so w itself must fit one.
    requireInput(params.bandwidth >= 4 && params.bandwidth % 2 == 0 &&
                     params.bandwidth <= 65534,
                 "abea: bandwidth must be even and in [4, 65534]");
    dp.w = params.bandwidth;
    dp.guard = guard;
    dp.stride = dp.w + 2 * guard;
    dp.n_bands = dp.n_events + dp.n_kmers + 2;

    // Transition log-probabilities (Nanopolish parameterization).
    const double events_per_kmer = static_cast<double>(dp.n_events) /
                                   static_cast<double>(dp.n_kmers);
    const double p_stay = 1.0 - 1.0 / (events_per_kmer + 1.0);
    dp.lp_stay = static_cast<float>(std::log(p_stay));
    dp.lp_skip = static_cast<float>(std::log(params.skip_prob));
    dp.lp_step = static_cast<float>(
        std::log(std::max(1e-12, 1.0 - p_stay - params.skip_prob)));
    dp.lp_trim = static_cast<float>(std::log(params.trim_prob));

    const size_t cells = static_cast<size_t>(dp.n_bands * dp.stride + tail);
    dp.band = std::make_unique_for_overwrite<float[]>(cells);
    dp.trace = std::make_unique_for_overwrite<u8[]>(cells);
    dp.band_ll.resize(static_cast<size_t>(dp.n_bands));
    // Bands 0-2 and the tail; the sweep clears the rest (n_bands >= 4).
    dp.clear(0, 3 * dp.stride);
    dp.clear(dp.n_bands, tail);
    return true;
}

/**
 * The band sweep: adaptive move, trim column and cell range of every
 * band, with `fill(BandRows)` computing the cells. The rows go by
 * value so the fill keeps them in registers across its trace-byte
 * stores, which may alias anything.
 */
template <typename Probe, typename FillBand>
void
sweepBands(BandDp& dp, const AbeaParams& params, AbeaResult& result,
           Probe& probe, FillBand&& fill)
{
    const i64 half = dp.w / 2;
    // Band 0 contains the virtual start cell (-1, -1); band 1 trims
    // the first event.
    dp.band_ll[0] = {half - 1, -1 - half};
    dp.band_ll[1] = {dp.band_ll[0].event_idx + 1, dp.band_ll[0].kmer_idx};
    dp.cell(0, dp.kmerToOffset(0, -1)) = 0.0f;
    {
        const i64 first_trim = dp.eventToOffset(1, 0);
        dp.cell(1, first_trim) = dp.lp_trim;
        dp.tr(1, first_trim) = kAbeaFromUp;
    }

    if (params.record_bands) {
        result.band_ranges.resize(static_cast<size_t>(dp.n_bands), {0, 0});
    }

    for (i64 b = 2; b < dp.n_bands; ++b) {
        if (b + 1 < dp.n_bands) dp.clear(b + 1, dp.stride);

        // Adaptive move: follow the higher band edge (Suzuki-Kasahara
        // rule), forced at the sequence boundaries.
        bool right;
        if (dp.band_ll[b - 1].kmer_idx >= dp.n_kmers - 1) {
            right = false;
        } else if (dp.band_ll[b - 1].event_idx >= dp.n_events - 1) {
            right = true;
        } else {
            const float ll = dp.cell(b - 1, 0);
            const float ur = dp.cell(b - 1, dp.w - 1);
            right = ur > ll;
            probe.branch(60, right);
        }
        dp.band_ll[b] = right ? BandLL{dp.band_ll[b - 1].event_idx,
                                       dp.band_ll[b - 1].kmer_idx + 1}
                              : BandLL{dp.band_ll[b - 1].event_idx + 1,
                                       dp.band_ll[b - 1].kmer_idx};

        // Trim column (kmer == -1): events skipped before alignment.
        const i64 trim_offset = dp.kmerToOffset(b, -1);
        if (dp.offsetValid(trim_offset)) {
            const i64 event = dp.eventAt(b, trim_offset);
            if (event >= 0 && event < dp.n_events) {
                dp.cell(b, trim_offset) =
                    dp.lp_trim * static_cast<float>(event + 1);
                dp.tr(b, trim_offset) = kAbeaFromUp;
            }
        }

        const i64 min_offset = std::max<i64>(
            {dp.kmerToOffset(b, 0), dp.eventToOffset(b, dp.n_events - 1),
             0});
        const i64 max_offset = std::min<i64>(
            {dp.kmerToOffset(b, dp.n_kmers), dp.eventToOffset(b, -1),
             dp.w});
        ++result.bands;
        if (min_offset >= max_offset) continue;
        if (params.record_bands) {
            result.band_ranges[static_cast<size_t>(b)] = {
                static_cast<u16>(min_offset),
                static_cast<u16>(max_offset)};
        }
        fill(BandRows{min_offset, max_offset, dp.band_ll[b],
                      dp.band_ll[b - 1], dp.band_ll[b - 2], &dp.cell(b, 0),
                      &dp.tr(b, 0), &dp.cell(b - 1, 0), &dp.cell(b - 2, 0)});
        result.cells_computed += static_cast<u64>(max_offset - min_offset);
    }
}

/**
 * Termination (best full-k-mer-coverage cell, trimming trailing
 * events) and backtrace.
 */
void
finishAlignment(BandDp& dp, AbeaResult& result)
{
    float best_score = kNegInf;
    i64 best_event = -1;
    for (i64 event_idx = 0; event_idx < dp.n_events; ++event_idx) {
        const i64 b = event_idx + (dp.n_kmers - 1) + 2;
        if (b < 0 || b >= dp.n_bands) continue;
        const i64 offset = dp.eventToOffset(b, event_idx);
        if (!dp.offsetValid(offset)) continue;
        const float s =
            dp.cell(b, offset) +
            static_cast<float>(dp.n_events - 1 - event_idx) * dp.lp_trim;
        if (s > best_score) {
            best_score = s;
            best_event = event_idx;
        }
    }
    if (best_event < 0 || best_score == kNegInf) return;

    result.score = best_score;
    result.valid = true;

    i64 event_idx = best_event;
    i64 kmer_idx = dp.n_kmers - 1;
    while (event_idx >= 0 && kmer_idx >= 0) {
        const i64 b = event_idx + kmer_idx + 2;
        const i64 offset = dp.eventToOffset(b, event_idx);
        const u8 from = dp.tr(b, offset);
        if (from == kAbeaFromNone) break;
        // Every visited in-band cell is an (event, k-mer) assignment
        // (Nanopolish emits skip-reached cells too).
        result.alignment.push_back({static_cast<u32>(event_idx),
                                    static_cast<u32>(kmer_idx)});
        if (from == kAbeaFromDiag) {
            --event_idx;
            --kmer_idx;
        } else if (from == kAbeaFromUp) {
            --event_idx;
        } else {
            --kmer_idx;
        }
    }
    std::reverse(result.alignment.begin(), result.alignment.end());
}

} // namespace

float
logProbMatch(const PoreKmerModel& km, float log_stdv, float event_mean)
{
    const float z = (event_mean - km.level_mean) / km.level_stdv;
    return -0.5f * z * z - log_stdv - simd::kAbeaLogSqrt2Pi;
}

template <typename Probe>
AbeaResult
alignEvents(std::span<const Event> events, const PoreModel& model,
            std::string_view ref, const AbeaParams& params, Probe& probe)
{
    AbeaResult result;
    BandDp dp;
    if (!initBandDp(dp, events, model, ref, params, 0, 0)) return result;

    // Locals, not dp.*, for the same reason the rows go by value.
    const u32* const ranks = dp.ranks.data();
    const i64 w = dp.w;
    const float lp_step = dp.lp_step;
    const float lp_stay = dp.lp_stay;
    const float lp_skip = dp.lp_skip;
    auto offsetValid = [w](i64 offset) { return offset >= 0 && offset < w; };
    sweepBands(dp, params, result, probe, [&](BandRows r) {
        for (i64 offset = r.lo; offset < r.hi; ++offset) {
            const i64 event_idx = r.at.event_idx - offset;
            const i64 kmer_idx = r.at.kmer_idx + offset;

            const u32 rank = ranks[kmer_idx];
            const PoreKmerModel& km = model.byRank(rank);
            probe.load(&km, sizeof(PoreKmerModel));
            probe.load(&events[static_cast<size_t>(event_idx)],
                       sizeof(Event));
            const float lp_emission = logProbMatch(
                km, model.logStdvByRank(rank),
                events[static_cast<size_t>(event_idx)].mean);

            const i64 offset_up = r.prev.event_idx - (event_idx - 1);
            const i64 offset_left = (kmer_idx - 1) - r.prev.kmer_idx;
            const i64 offset_diag = (kmer_idx - 1) - r.prev2.kmer_idx;

            float up = kNegInf;
            if (offsetValid(offset_up)) {
                up = r.prev_cells[offset_up];
                probe.load(&r.prev_cells[offset_up], 4);
            }
            float left = kNegInf;
            if (offsetValid(offset_left)) {
                left = r.prev_cells[offset_left];
                probe.load(&r.prev_cells[offset_left], 4);
            }
            float diag = kNegInf;
            if (offsetValid(offset_diag)) {
                diag = r.prev2_cells[offset_diag];
                probe.load(&r.prev2_cells[offset_diag], 4);
            }

            const float score_d = diag + lp_step + lp_emission;
            const float score_u = up + lp_stay + lp_emission;
            const float score_l = left + lp_skip;

            float best = score_d;
            u8 from = kAbeaFromDiag;
            if (score_u > best) {
                best = score_u;
                from = kAbeaFromUp;
            }
            if (score_l > best) {
                best = score_l;
                from = kAbeaFromLeft;
            }
            if (best > r.cells[offset]) {
                r.cells[offset] = best;
                r.trace[offset] = from;
            }
            probe.op(OpClass::kFpAlu, 9);
            probe.op(OpClass::kIntAlu, 6);
            probe.store(&r.cells[offset], 4);
        }
    });
    finishAlignment(dp, result);
    return result;
}

AbeaResult
alignEvents(std::span<const Event> events, const PoreModel& model,
            std::string_view ref, const AbeaParams& params)
{
    NullProbe probe;
    const simd::AbeaBandFn engine =
        simd::abeaBandFor(simd::activeSimdLevel());
    if (!engine) return alignEvents(events, model, ref, params, probe);

    AbeaResult result;
    BandDp dp;
    if (!initBandDp(dp, events, model, ref, params, 1, simd::kAbeaPad)) {
        return result;
    }

    // Operand layout: k-mer levels by sequence position and event means
    // reversed, so both indices rise with the band offset.
    const size_t n_kmers = dp.ranks.size();
    const size_t n_events = events.size();
    std::vector<float> level_mean(n_kmers + simd::kAbeaPad, 0.0f);
    std::vector<float> level_stdv(n_kmers + simd::kAbeaPad, 1.0f);
    std::vector<float> log_stdv(n_kmers + simd::kAbeaPad, 0.0f);
    for (size_t k = 0; k < n_kmers; ++k) {
        const PoreKmerModel& km = model.byRank(dp.ranks[k]);
        level_mean[k] = km.level_mean;
        level_stdv[k] = km.level_stdv;
        log_stdv[k] = model.logStdvByRank(dp.ranks[k]);
    }
    std::vector<float> event_rev(n_events + simd::kAbeaPad, 0.0f);
    for (size_t e = 0; e < n_events; ++e) {
        event_rev[n_events - 1 - e] = events[e].mean;
    }

    simd::AbeaBand band;
    band.lp_step = dp.lp_step;
    band.lp_stay = dp.lp_stay;
    band.lp_skip = dp.lp_skip;
    sweepBands(dp, params, result, probe, [&](BandRows r) {
        // Neighbour slot shifts, fixed by the last two band moves:
        // up +0/+1, left -1/0, diag -1/0/+1.
        const i64 up = r.prev.event_idx - r.at.event_idx + 1;
        const i64 left = r.at.kmer_idx - r.prev.kmer_idx - 1;
        const i64 diag = r.at.kmer_idx - r.prev2.kmer_idx - 1;
        const size_t kmer = static_cast<size_t>(r.at.kmer_idx + r.lo);
        band.n = static_cast<u32>(r.hi - r.lo);
        band.cur = r.cells + r.lo;
        band.trace = r.trace + r.lo;
        band.up = r.prev_cells + (r.lo + up);
        band.left = r.prev_cells + (r.lo + left);
        band.diag = r.prev2_cells + (r.lo + diag);
        band.level_mean = level_mean.data() + kmer;
        band.level_stdv = level_stdv.data() + kmer;
        band.log_stdv = log_stdv.data() + kmer;
        band.event_mean = event_rev.data() +
                          (n_events - 1 - static_cast<size_t>(
                                              r.at.event_idx - r.lo));
        engine(band);
    });
    finishAlignment(dp, result);
    return result;
}

// Explicit instantiations.
template AbeaResult alignEvents<NullProbe>(std::span<const Event>,
                                           const PoreModel&,
                                           std::string_view,
                                           const AbeaParams&, NullProbe&);
template AbeaResult alignEvents<CharProbe>(std::span<const Event>,
                                           const PoreModel&,
                                           std::string_view,
                                           const AbeaParams&,
                                           CharProbe&);

} // namespace gb
