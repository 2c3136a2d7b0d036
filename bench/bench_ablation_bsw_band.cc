/**
 * @file
 * Ablation: bsw band width and early-exit (z-drop) threshold.
 *
 * Narrow bands cut cell updates but can clip the optimal alignment;
 * z-drop saves work on dissimilar pairs at no accuracy cost for true
 * pairs. Scores are compared against a quasi-unbanded run. Both the
 * reference scores and the timed sweep use the per-pair scalar kernel
 * (bandedSwScalar), so the time column measures band and z-drop, not
 * an engine.
 */
#include <iostream>

#include "align/banded_sw.h"
#include "harness.h"
#include "io/dna.h"
#include "simdata/genome.h"
#include "util/rng.h"
#include "util/timer.h"

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options = bench::Options::parse(argc, argv);
    bench::printHeader("Ablation: bsw band / z-drop",
                       "work vs score fidelity", options);

    const u64 num_pairs =
        options.size == DatasetSize::kTiny ? 300 : 4000;
    GenomeParams gp;
    gp.length = 200'000;
    gp.seed = 111;
    const Genome genome = generateGenome(gp);
    Rng rng(112);

    std::vector<std::vector<u8>> queries;
    std::vector<std::vector<u8>> targets;
    for (u64 i = 0; i < num_pairs; ++i) {
        const bool spurious = rng.chance(0.15);
        const u64 qlen =
            spurious ? 260 + rng.below(60) : 100 + rng.below(52);
        const u64 tlen = qlen + 40;
        const u64 pos = rng.below(genome.seq.size() - tlen - 1);
        std::string mutated;
        if (spurious) {
            // Spurious seed: matching prefix then a long divergent
            // tail — the case z-drop exists for.
            const u64 other =
                rng.below(genome.seq.size() - qlen - 1);
            mutated = genome.seq.substr(pos + 10, 60) +
                      genome.seq.substr(other, qlen - 60);
        } else {
            // Include occasional indels so narrow bands clip paths.
            for (char c : genome.seq.substr(pos + 10, qlen)) {
                if (rng.chance(0.01)) continue;
                if (rng.chance(0.01)) mutated += "ACGT"[rng.below(4)];
                mutated += rng.chance(0.02) ? "ACGT"[rng.below(4)] : c;
            }
        }
        queries.push_back(encodeDna(mutated));
        targets.push_back(encodeDna(genome.seq.substr(pos, tlen)));
    }

    const auto scalar_sw = [&](u64 i, const SwParams& params) {
        NullProbe probe;
        return bandedSwScalar(queries[i], targets[i], params, probe);
    };

    // Reference scores: effectively unbanded, no z-drop.
    SwParams reference;
    reference.band_width = 400;
    reference.zdrop = 1 << 28;
    std::vector<i32> ref_scores(num_pairs);
    for (u64 i = 0; i < num_pairs; ++i) {
        ref_scores[i] = scalar_sw(i, reference).score;
    }

    Table table("Band width / z-drop sweep");
    table.setHeader({"band", "zdrop", "cells", "time (s)",
                     "exact-score pairs", "aborted"});
    for (const i32 band : {11, 25, 51, 101}) {
        for (const i32 zdrop : {100, 1 << 28}) {
            SwParams params;
            params.band_width = band;
            params.zdrop = zdrop;
            u64 cells = 0;
            u64 exact = 0;
            u64 aborted = 0;
            WallTimer timer;
            for (u64 i = 0; i < num_pairs; ++i) {
                const auto r = scalar_sw(i, params);
                cells += r.cell_updates;
                exact += r.score == ref_scores[i];
                aborted += r.aborted;
            }
            table.newRow()
                .cell(band)
                .cell(zdrop == 100 ? "100" : "off")
                .cell(formatCount(cells))
                .cellF(timer.seconds(), 3)
                .cell(std::to_string(exact) + "/" +
                      std::to_string(num_pairs))
                .cell(aborted);
        }
    }
    bench::report(table);
    std::cout << "\nExpected: cells grow ~linearly with band width; "
                 "score fidelity saturates around the default band "
                 "(51); z-drop trims work without losing exact "
                 "scores on these similar pairs.\n";
    return 0;
}
