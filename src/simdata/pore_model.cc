#include "simdata/pore_model.h"

#include <algorithm>
#include <cmath>

#include "io/dna.h"

namespace gb {

PoreModel::PoreModel(u32 k, u64 seed) : k_(k)
{
    requireInput(k >= 3 && k <= 10, "pore model k must be in [3, 10]");
    const u32 n = 1u << (2 * k);
    table_.resize(n);
    log_stdv_.resize(n);
    for (u32 rank = 0; rank < n; ++rank) {
        // Hash the rank so adjacent k-mers receive unrelated levels.
        u64 h = seed ^ (static_cast<u64>(rank) * 0x9e3779b97f4a7c15ULL);
        h = splitMix64(h);
        const double u1 =
            static_cast<double>(h >> 11) * 0x1.0p-53;
        h = splitMix64(h);
        const double u2 =
            static_cast<double>(h >> 11) * 0x1.0p-53;
        table_[rank].level_mean =
            static_cast<float>(60.0 + 70.0 * u1);
        table_[rank].level_stdv =
            static_cast<float>(1.0 + 2.5 * u2);
        log_stdv_[rank] = std::log(table_[rank].level_stdv);
    }
}

u32
PoreModel::rankOf(std::string_view kmer) const
{
    requireInput(kmer.size() == k_, "k-mer length mismatch");
    u32 rank = 0;
    for (char c : kmer) {
        const u8 code = baseCode(c);
        requireInput(code < kNumBases, "k-mer contains non-ACGT base");
        rank = (rank << 2) | code;
    }
    return rank;
}

const PoreKmerModel&
PoreModel::byKmer(std::string_view kmer) const
{
    return table_[rankOf(kmer)];
}

std::vector<u32>
PoreModel::sequenceRanks(std::string_view seq) const
{
    requireInput(seq.size() >= k_, "sequence shorter than k");
    std::vector<u32> ranks;
    ranks.reserve(seq.size() - k_ + 1);
    const u32 mask = (1u << (2 * k_)) - 1;
    u32 rank = 0;
    u32 filled = 0;
    for (size_t i = 0; i < seq.size(); ++i) {
        const u8 code = baseCode(seq[i]);
        requireInput(code < kNumBases,
                     "sequence contains non-ACGT base");
        rank = ((rank << 2) | code) & mask;
        if (++filled >= k_) ranks.push_back(rank);
    }
    return ranks;
}

SimSignal
simulateSignal(const PoreModel& model, std::string_view seq,
               const SignalParams& params)
{
    SimSignal out;
    out.sequence.assign(seq.begin(), seq.end());
    Rng rng(params.seed);
    const auto ranks = model.sequenceRanks(seq);
    out.samples.reserve(
        static_cast<size_t>(ranks.size() * params.dwell_mean * 1.3));

    for (u32 ki = 0; ki < ranks.size(); ++ki) {
        const PoreKmerModel& km = model.byRank(ranks[ki]);
        // A k-mer emits one event, sometimes more (over-representation
        // up to ~2x as in the paper).
        u32 events_here = 1;
        while (events_here < 3 && rng.chance(params.resample_prob)) {
            ++events_here;
        }
        for (u32 e = 0; e < events_here; ++e) {
            // Overdispersed dwell: exponential tail on a minimum.
            double dwell =
                params.dwell_min +
                rng.geometric(1.0 /
                              (params.dwell_mean - params.dwell_min));
            const u32 len = static_cast<u32>(std::max(1.0, dwell));
            TrueEvent ev;
            ev.start_sample = out.samples.size();
            ev.length = len;
            ev.kmer_index = ki;
            double sum = 0.0;
            for (u32 s = 0; s < len; ++s) {
                const double sample = rng.normal(
                    km.level_mean,
                    std::hypot(km.level_stdv, params.noise_stdv));
                out.samples.push_back(static_cast<float>(sample));
                sum += sample;
            }
            ev.mean = static_cast<float>(sum / len);
            out.events.push_back(ev);
        }
    }
    return out;
}

} // namespace gb
