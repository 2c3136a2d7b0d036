/**
 * @file
 * Nanopore pore model and raw-signal simulation.
 *
 * Substitutes for ONT fast5 signal data (used by the abea and nn-base
 * kernels). The pore model assigns every k-mer (k = 6, as in the R9.4
 * chemistry tables shipped with Nanopolish) a Gaussian current level;
 * the simulator then emits a dwell of noisy samples per k-mer as the
 * strand translocates. Dwell times are overdispersed and k-mers can be
 * re-sampled, reproducing the "k-mers are often over-represented (up to
 * 2x) by multiple events" behaviour the paper highlights for abea.
 */
#ifndef GB_SIMDATA_PORE_MODEL_H
#define GB_SIMDATA_PORE_MODEL_H

#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"
#include "util/rng.h"

namespace gb {

/** Gaussian emission parameters of one k-mer. */
struct PoreKmerModel
{
    float level_mean; ///< pA
    float level_stdv; ///< pA
};

/**
 * Deterministic k-mer -> current-level model.
 *
 * Levels are synthesized from a hash of the k-mer so that similar
 * k-mers do *not* get similar levels (true of real pore chemistry,
 * where one base substitution can shift the level arbitrarily), while
 * the overall level distribution matches R9.4: means in ~[60, 130] pA,
 * stdv in ~[1, 3.5] pA.
 */
class PoreModel
{
  public:
    explicit PoreModel(u32 k = 6, u64 seed = 17);

    u32 k() const { return k_; }
    u32 numKmers() const { return static_cast<u32>(table_.size()); }

    /** Model for a packed 2-bit k-mer rank. */
    const PoreKmerModel& byRank(u32 rank) const { return table_[rank]; }

    /** log(byRank(rank).level_stdv), computed once per rank. */
    float logStdvByRank(u32 rank) const { return log_stdv_[rank]; }

    /** Model for an ASCII k-mer (must be ACGT, length k). */
    const PoreKmerModel& byKmer(std::string_view kmer) const;

    /** Packed 2-bit rank of an ASCII k-mer. */
    u32 rankOf(std::string_view kmer) const;

    /** Ranks of every k-mer of `seq` (size() - k + 1 entries). */
    std::vector<u32> sequenceRanks(std::string_view seq) const;

  private:
    u32 k_;
    std::vector<PoreKmerModel> table_;
    std::vector<float> log_stdv_; ///< parallel to table_
};

/** A ground-truth event emitted by the simulator. */
struct TrueEvent
{
    u64 start_sample;  ///< index into the raw signal
    u32 length;        ///< samples in this event
    u32 kmer_index;    ///< k-mer position in the source sequence
    float mean;        ///< noisy observed mean current
};

/** Parameters of the signal process. */
struct SignalParams
{
    double dwell_mean = 10.0;    ///< samples per event
    double dwell_min = 3.0;
    double noise_stdv = 1.0;     ///< sample noise added to the level
    double resample_prob = 0.35; ///< chance a k-mer emits another event
    u64 seed = 19;
};

/** Simulated raw read: current samples plus truth events. */
struct SimSignal
{
    std::vector<float> samples;
    std::vector<TrueEvent> events;
    std::string sequence;         ///< basecalled ground truth
};

/** Simulate the raw signal for `seq` through `model`. */
SimSignal simulateSignal(const PoreModel& model, std::string_view seq,
                         const SignalParams& params);

} // namespace gb

#endif // GB_SIMDATA_PORE_MODEL_H
