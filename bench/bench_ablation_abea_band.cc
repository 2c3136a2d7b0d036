/**
 * @file
 * Ablation: abea bandwidth (f5c default W=100).
 *
 * The adaptive band must be wide enough to absorb the event/k-mer rate
 * mismatch (k-mers over-represented up to 2x); narrow bands lose the
 * optimal path, wide bands cost linearly more cells.
 *
 * Dataset: its own reads (abea's seeds) at resample_prob 0.45, so that
 * events over-represent k-mers enough to stress the band.
 */
#include <iostream>

#include "abea/abea.h"
#include "abea/event_detect.h"
#include "harness.h"
#include "simdata/genome.h"
#include "simdata/pore_model.h"
#include "util/rng.h"
#include "util/timer.h"

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options = bench::Options::parse(argc, argv);
    bench::printHeader("Ablation: abea bandwidth",
                       "band width vs alignment quality (default 100)",
                       options);

    const u64 num_reads =
        options.size == DatasetSize::kTiny ? 10 : 60;
    PoreModel model(6, 161);
    GenomeParams gp;
    gp.length = 150'000;
    gp.seed = 162;
    const Genome genome = generateGenome(gp);
    Rng rng(163);

    struct Read
    {
        std::string ref;
        std::vector<Event> events;
    };
    std::vector<Read> reads;
    for (u64 r = 0; r < num_reads; ++r) {
        const u64 seg_len = 1500 + rng.below(1500);
        const u64 pos = rng.below(genome.seq.size() - seg_len - 1);
        Read read;
        read.ref = genome.seq.substr(pos, seg_len);
        SignalParams sp;
        sp.seed = 164 + r;
        sp.resample_prob = 0.45; // heavy over-representation
        const auto sim = simulateSignal(model, read.ref, sp);
        read.events = detectEvents(sim.samples);
        reads.push_back(std::move(read));
    }

    // Reference scores from a very wide band.
    AbeaParams wide;
    wide.bandwidth = 512;
    std::vector<float> ref_scores(reads.size());
    for (size_t r = 0; r < reads.size(); ++r) {
        ref_scores[r] =
            alignEvents(reads[r].events, model, reads[r].ref, wide)
                .score;
    }

    Table table("Bandwidth sweep");
    table.setHeader({"bandwidth", "cells", "time (s)",
                     "mean score gap", "within 1% of wide"});
    for (const u32 w : {16u, 32u, 64u, 100u, 200u}) {
        AbeaParams params;
        params.bandwidth = w;
        u64 cells = 0;
        double gap = 0.0;
        u64 close = 0;
        WallTimer timer;
        for (size_t r = 0; r < reads.size(); ++r) {
            const auto result = alignEvents(reads[r].events, model,
                                            reads[r].ref, params);
            cells += result.cells_computed;
            const double d = static_cast<double>(ref_scores[r]) -
                             result.score;
            gap += d;
            close += d <= 0.01 * std::abs(ref_scores[r]);
        }
        table.newRow()
            .cell(w)
            .cell(formatCount(cells))
            .cellF(timer.seconds(), 3)
            .cellF(gap / static_cast<double>(reads.size()), 1)
            .cell(std::to_string(close) + "/" +
                  std::to_string(reads.size()));
    }
    bench::report(table);
    std::cout << "\nExpected: cells scale ~linearly with the band. "
                 "Because the band *adapts* (moves toward the higher-"
                 "scoring edge each step), even narrow bands track "
                 "the optimal path on these reads — the adaptivity is "
                 "exactly what lets ABEA use a fixed small W where a "
                 "static band would need to cover the full event/"
                 "k-mer rate mismatch. Nanopolish keeps W=100 as "
                 "headroom for pathological dwells.\n";
    return 0;
}
