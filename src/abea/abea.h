/**
 * @file
 * Adaptive Banded Event Alignment — the abea kernel.
 *
 * Faithful to the ABEA algorithm of Nanopolish/f5c (paper §III):
 * detected signal events are aligned to the k-mers of a reference
 * segment with a banded dynamic program whose band *adapts*: at every
 * step the band moves either down (consume an event) or right (consume
 * a k-mer) depending on which band edge carries the higher score. This
 * captures the long stay/skip gaps caused by k-mers being
 * over-represented by up to 2x in the event stream. Scores are 32-bit
 * float log-likelihoods of Gaussian emissions under the pore model,
 * with stay/step/skip transition log-probabilities.
 */
#ifndef GB_ABEA_ABEA_H
#define GB_ABEA_ABEA_H

#include <span>
#include <vector>

#include "abea/event_detect.h"
#include "arch/probe.h"
#include "simdata/pore_model.h"
#include "util/common.h"

namespace gb {

/** ABEA parameters (f5c-like defaults). */
struct AbeaParams
{
    u32 bandwidth = 100;     ///< band width W (ALN_BANDWIDTH in f5c);
                             ///< even, in [4, 65534]
    double skip_prob = 1e-10; ///< probability of skipping a k-mer
    double trim_prob = 0.01;  ///< leading/trailing event trim
    bool record_bands = false; ///< keep per-band cell ranges (for the
                               ///< GPU SIMT replay in bench/)
};

/** One event -> k-mer assignment in the final alignment. */
struct EventAlignment
{
    u32 event_idx;
    u32 kmer_idx;
};

/** Result of aligning one read's events to a reference segment. */
struct AbeaResult
{
    float score = 0.0f;                    ///< best log-likelihood
    std::vector<EventAlignment> alignment; ///< monotone event/k-mer map
    u64 cells_computed = 0;                ///< valid cells evaluated
    u64 bands = 0;                         ///< band steps executed
    bool valid = false;
    /** Per-band [min_offset, max_offset) when record_bands is set. */
    std::vector<std::pair<u16, u16>> band_ranges;
};

/**
 * Align events to the k-mer sequence of `ref` under `model`.
 *
 * @param events Detected events (means are compared to model levels).
 * @param model  Pore model (k-mer -> Gaussian current).
 * @param ref    Reference bases (ASCII ACGT), >= k long.
 */
template <typename Probe>
AbeaResult alignEvents(std::span<const Event> events,
                       const PoreModel& model, std::string_view ref,
                       const AbeaParams& params, Probe& probe);

/**
 * Uninstrumented: at GB_SIMD_LEVEL sse4/avx2 the band-parallel engine
 * (simd/abea_engine.h) fills each band, and at scalar the template
 * above runs. The result is bit-identical either way.
 */
AbeaResult alignEvents(std::span<const Event> events,
                       const PoreModel& model, std::string_view ref,
                       const AbeaParams& params = {});

/**
 * Gaussian emission log-probability of an event given a k-mer model;
 * `log_stdv` is log(km.level_stdv), precomputed by
 * PoreModel::logStdvByRank().
 */
float logProbMatch(const PoreKmerModel& km, float log_stdv,
                   float event_mean);

} // namespace gb

#endif // GB_ABEA_ABEA_H
