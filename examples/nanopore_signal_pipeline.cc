/**
 * @file
 * Nanopore signal pipeline (the suite's long-read signal kernels):
 *
 *   pore-model signal simulation -> event detection
 *     -> adaptive banded event alignment (abea) to the reference
 *     -> per-site signal evidence (methylation-calling style)
 *   plus CNN basecalling of the raw chunks (nn-base) and Clair-style
 *   variant scoring of a pileup tensor (nn-variant).
 *
 * Run: ./example_nanopore_signal_pipeline
 */
#include <cmath>
#include <cstdio>
#include <iostream>
#include <span>

#include "abea/abea.h"
#include "abea/event_detect.h"
#include "io/dna.h"
#include "nn/bonito.h"
#include "nn/clair.h"
#include "pileup/pileup.h"
#include "simdata/genome.h"
#include "simdata/pore_model.h"
#include "simdata/reads.h"
#include "util/timer.h"

int
main()
{
    using namespace gb;
    WallTimer total;

    GenomeParams gp;
    gp.length = 50'000;
    gp.seed = 23;
    const Genome genome = generateGenome(gp);
    const PoreModel pore(6, 77);

    // --- raw signal for a 3 kb segment ------------------------------
    const std::string segment = genome.seq.substr(10'000, 3'000);
    SignalParams sp;
    sp.seed = 5;
    // Comfortable dwells so the t-test detector finds most event
    // boundaries (short merged events otherwise blur the z-scores).
    sp.dwell_mean = 12.0;
    sp.resample_prob = 0.25;
    sp.noise_stdv = 0.8;
    const SimSignal signal = simulateSignal(pore, segment, sp);
    std::cout << "simulated " << signal.samples.size()
              << " raw samples for a " << segment.size()
              << " bp segment (" << signal.events.size()
              << " true events)\n";

    // --- event detection + abea -------------------------------------
    const auto events = detectEvents(signal.samples);
    std::cout << "detected " << events.size() << " events\n";

    WallTimer abea_timer;
    const AbeaResult aln = alignEvents(events, pore, segment);
    const double abea_s = abea_timer.seconds();
    // Score at %.9g (every float bit): the line is compared across
    // GB_SIMD_LEVELs, so the timing goes on a line of its own.
    char score[32];
    std::snprintf(score, sizeof(score), "%.9g", aln.score);
    std::cout << "abea: score " << score << ", " << aln.alignment.size()
              << " event-kmer assignments, " << aln.cells_computed
              << " band cells\n";
    std::cout << "abea time: " << abea_s << " s\n";

    // Per-site evidence: mean absolute z-score of events assigned to
    // each k-mer (the quantity methylation callers threshold).
    const auto ranks = pore.sequenceRanks(segment);
    double mean_abs_z = 0.0;
    for (const auto& ea : aln.alignment) {
        const auto& km = pore.byRank(ranks[ea.kmer_idx]);
        mean_abs_z += std::abs(
            (events[ea.event_idx].mean - km.level_mean) /
            km.level_stdv);
    }
    mean_abs_z /= static_cast<double>(aln.alignment.size());
    std::cout << "signal fit: mean |z| = " << mean_abs_z
              << " (close to ~0.8 for a correct alignment of "
                 "Gaussian events)\n";

    // --- nn-base: basecall the chunks --------------------------------
    const BonitoModel basecaller;
    NullProbe probe;
    WallTimer bc_timer;
    const std::string called =
        basecaller.basecall(signal.samples, probe);
    std::cout << "nn-base: " << called.size()
              << " bases called from "
              << ceilDiv<u64>(signal.samples.size(), 4000)
              << " chunks in " << bc_timer.seconds()
              << " s (untrained weights: performance-faithful, "
                 "sequence content synthetic)\n";

    // --- nn-variant: score pileup positions --------------------------
    LongReadParams lp;
    lp.coverage = 12.0;
    const auto reads = simulateLongReads(genome.seq, lp);
    const auto records = toAlignments(reads);
    const auto pileup = countPileup(records, 0, genome.size());
    const auto ref_codes = encodeDna(genome.seq);

    const ClairModel clair;
    u64 scored = 0;
    WallTimer clair_timer;
    for (u64 center = 1'000; center < 2'000; center += 100) {
        const auto features =
            clairFeatures(pileup, ref_codes, center);
        const ClairOutput out = clair.predict(features, probe);
        float best = 0.0f;
        for (float p : out.var_type) best = std::max(best, p);
        ++scored;
        (void)best;
    }
    std::cout << "nn-variant: scored " << scored
              << " candidate positions in " << clair_timer.seconds()
              << " s\n";

    std::cout << "pipeline total: " << total.seconds() << " s\n";
    return aln.valid && mean_abs_z < 1.5 ? 0 : 1;
}
