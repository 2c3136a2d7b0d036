#include "abea/abea.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gb {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

enum : u8 { kFromNone = 0, kFromDiag, kFromUp, kFromLeft };

/** Band anchor: coordinates of offset 0 (the lower-left cell). */
struct BandLL
{
    i64 event_idx;
    i64 kmer_idx;
};

} // namespace

float
logProbMatch(const PoreKmerModel& km, float log_stdv, float event_mean)
{
    const float z = (event_mean - km.level_mean) / km.level_stdv;
    constexpr float kLogSqrt2Pi = 0.9189385332f;
    return -0.5f * z * z - log_stdv - kLogSqrt2Pi;
}

template <typename Probe>
AbeaResult
alignEvents(std::span<const Event> events, const PoreModel& model,
            std::string_view ref, const AbeaParams& params, Probe& probe)
{
    AbeaResult result;
    const i64 n_events = static_cast<i64>(events.size());
    requireInput(ref.size() >= model.k(),
                 "abea: reference shorter than the pore-model k");
    const std::vector<u32> ranks = model.sequenceRanks(ref);
    const i64 n_kmers = static_cast<i64>(ranks.size());
    if (n_events == 0) return result;

    const i64 w = params.bandwidth;
    requireInput(w >= 4 && w % 2 == 0,
                 "abea: bandwidth must be even and >= 4");
    const i64 half = w / 2;
    const i64 n_bands = n_events + n_kmers + 2;

    // Transition log-probabilities (Nanopolish parameterization).
    const double events_per_kmer =
        static_cast<double>(n_events) / static_cast<double>(n_kmers);
    const double p_stay = 1.0 - 1.0 / (events_per_kmer + 1.0);
    const float lp_stay = static_cast<float>(std::log(p_stay));
    const float lp_skip =
        static_cast<float>(std::log(params.skip_prob));
    const float lp_step = static_cast<float>(
        std::log(std::max(1e-12, 1.0 - p_stay - params.skip_prob)));
    const float lp_trim =
        static_cast<float>(std::log(params.trim_prob));

    std::vector<float> band(static_cast<size_t>(n_bands) * w, kNegInf);
    std::vector<u8> trace(static_cast<size_t>(n_bands) * w, kFromNone);
    std::vector<BandLL> band_ll(n_bands);
    auto cell = [&](i64 b, i64 offset) -> float& {
        return band[static_cast<size_t>(b) * w + offset];
    };
    auto tr = [&](i64 b, i64 offset) -> u8& {
        return trace[static_cast<size_t>(b) * w + offset];
    };
    auto kmerToOffset = [&](i64 b, i64 kmer) {
        return kmer - band_ll[b].kmer_idx;
    };
    auto eventToOffset = [&](i64 b, i64 event) {
        return band_ll[b].event_idx - event;
    };
    auto eventAt = [&](i64 b, i64 offset) {
        return band_ll[b].event_idx - offset;
    };
    auto kmerAt = [&](i64 b, i64 offset) {
        return band_ll[b].kmer_idx + offset;
    };
    auto offsetValid = [&](i64 offset) {
        return offset >= 0 && offset < w;
    };

    // Band 0 contains the virtual start cell (-1, -1); band 1 trims
    // the first event.
    band_ll[0] = {half - 1, -1 - half};
    band_ll[1] = {band_ll[0].event_idx + 1, band_ll[0].kmer_idx};
    cell(0, kmerToOffset(0, -1)) = 0.0f;
    {
        const i64 first_trim = eventToOffset(1, 0);
        cell(1, first_trim) = lp_trim;
        tr(1, first_trim) = kFromUp;
    }

    if (params.record_bands) result.band_ranges.resize(n_bands, {0, 0});

    for (i64 b = 2; b < n_bands; ++b) {
        // Adaptive move: follow the higher band edge (Suzuki-Kasahara
        // rule), forced at the sequence boundaries.
        bool right;
        if (band_ll[b - 1].kmer_idx >= n_kmers - 1) {
            right = false;
        } else if (band_ll[b - 1].event_idx >= n_events - 1) {
            right = true;
        } else {
            const float ll = cell(b - 1, 0);
            const float ur = cell(b - 1, w - 1);
            right = ur > ll;
            probe.branch(60, right);
        }
        band_ll[b] = right ? BandLL{band_ll[b - 1].event_idx,
                                    band_ll[b - 1].kmer_idx + 1}
                           : BandLL{band_ll[b - 1].event_idx + 1,
                                    band_ll[b - 1].kmer_idx};

        // Trim column (kmer == -1): events skipped before alignment.
        const i64 trim_offset = kmerToOffset(b, -1);
        if (offsetValid(trim_offset)) {
            const i64 event = eventAt(b, trim_offset);
            if (event >= 0 && event < n_events) {
                cell(b, trim_offset) =
                    lp_trim * static_cast<float>(event + 1);
                tr(b, trim_offset) = kFromUp;
            }
        }

        const i64 min_offset = std::max<i64>(
            {kmerToOffset(b, 0), eventToOffset(b, n_events - 1), 0});
        const i64 max_offset = std::min<i64>(
            {kmerToOffset(b, n_kmers), eventToOffset(b, -1), w});
        if (params.record_bands && min_offset < max_offset) {
            result.band_ranges[static_cast<size_t>(b)] = {
                static_cast<u16>(min_offset),
                static_cast<u16>(max_offset)};
        }
        ++result.bands;

        for (i64 offset = min_offset; offset < max_offset; ++offset) {
            const i64 event_idx = eventAt(b, offset);
            const i64 kmer_idx = kmerAt(b, offset);

            const u32 rank = ranks[static_cast<size_t>(kmer_idx)];
            const PoreKmerModel& km = model.byRank(rank);
            probe.load(&km, sizeof(PoreKmerModel));
            probe.load(&events[static_cast<size_t>(event_idx)],
                       sizeof(Event));
            const float lp_emission = logProbMatch(
                km, model.logStdvByRank(rank),
                events[static_cast<size_t>(event_idx)].mean);

            const i64 offset_up = eventToOffset(b - 1, event_idx - 1);
            const i64 offset_left = kmerToOffset(b - 1, kmer_idx - 1);
            const i64 offset_diag = kmerToOffset(b - 2, kmer_idx - 1);

            float up = kNegInf;
            if (offsetValid(offset_up)) {
                up = cell(b - 1, offset_up);
                probe.load(&cell(b - 1, offset_up), 4);
            }
            float left = kNegInf;
            if (offsetValid(offset_left)) {
                left = cell(b - 1, offset_left);
                probe.load(&cell(b - 1, offset_left), 4);
            }
            float diag = kNegInf;
            if (offsetValid(offset_diag)) {
                diag = cell(b - 2, offset_diag);
                probe.load(&cell(b - 2, offset_diag), 4);
            }

            const float score_d = diag + lp_step + lp_emission;
            const float score_u = up + lp_stay + lp_emission;
            const float score_l = left + lp_skip;

            float best = score_d;
            u8 from = kFromDiag;
            if (score_u > best) {
                best = score_u;
                from = kFromUp;
            }
            if (score_l > best) {
                best = score_l;
                from = kFromLeft;
            }
            if (best > cell(b, offset)) {
                cell(b, offset) = best;
                tr(b, offset) = from;
            }
            ++result.cells_computed;
            probe.op(OpClass::kFpAlu, 9);
            probe.op(OpClass::kIntAlu, 6);
            probe.store(&cell(b, offset), 4);
        }
    }

    // Termination: best full-k-mer-coverage cell, trimming trailing
    // events.
    float best_score = kNegInf;
    i64 best_event = -1;
    for (i64 event_idx = 0; event_idx < n_events; ++event_idx) {
        const i64 b = event_idx + (n_kmers - 1) + 2;
        if (b < 0 || b >= n_bands) continue;
        const i64 offset = eventToOffset(b, event_idx);
        if (!offsetValid(offset)) continue;
        const float s =
            cell(b, offset) +
            static_cast<float>(n_events - 1 - event_idx) * lp_trim;
        if (s > best_score) {
            best_score = s;
            best_event = event_idx;
        }
    }
    if (best_event < 0 || best_score == kNegInf) return result;

    result.score = best_score;
    result.valid = true;

    // Backtrace.
    i64 event_idx = best_event;
    i64 kmer_idx = n_kmers - 1;
    while (event_idx >= 0 && kmer_idx >= 0) {
        const i64 b = event_idx + kmer_idx + 2;
        const i64 offset = eventToOffset(b, event_idx);
        const u8 from = tr(b, offset);
        if (from == kFromNone) break;
        // Every visited in-band cell is an (event, k-mer) assignment
        // (Nanopolish emits skip-reached cells too).
        result.alignment.push_back({static_cast<u32>(event_idx),
                                    static_cast<u32>(kmer_idx)});
        if (from == kFromDiag) {
            --event_idx;
            --kmer_idx;
        } else if (from == kFromUp) {
            --event_idx;
        } else {
            --kmer_idx;
        }
    }
    std::reverse(result.alignment.begin(), result.alignment.end());
    return result;
}

AbeaResult
alignEvents(std::span<const Event> events, const PoreModel& model,
            std::string_view ref, const AbeaParams& params)
{
    NullProbe probe;
    return alignEvents(events, model, ref, params, probe);
}

// Explicit instantiations.
template AbeaResult alignEvents<NullProbe>(std::span<const Event>,
                                           const PoreModel&,
                                           std::string_view,
                                           const AbeaParams&, NullProbe&);
template AbeaResult alignEvents<CountingProbe>(std::span<const Event>,
                                               const PoreModel&,
                                               std::string_view,
                                               const AbeaParams&,
                                               CountingProbe&);
template AbeaResult alignEvents<CharProbe>(std::span<const Event>,
                                           const PoreModel&,
                                           std::string_view,
                                           const AbeaParams&,
                                           CharProbe&);

} // namespace gb
