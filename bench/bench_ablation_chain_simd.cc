/**
 * @file
 * Ablation: vectorized chaining engine vs anchor density.
 *
 * The wave-3 chain engine evaluates the predecessor window in 32-bit
 * SIMD lanes, so its advantage over the scalar DP grows with the
 * number of anchors each window actually examines. Sweeping the
 * minimizer window w changes the anchor density (smaller w samples
 * more minimizers per read, yielding denser anchor sets) and the sweep
 * times the scalar template (chainAnchors with a NullProbe) and the
 * dispatched chainAnchors on identical inputs at every density. Each
 * engine row is verified cell for cell against the
 * scalar DP — scores, parents and extracted chains must be
 * bit-identical at the active dispatch level, and the binary exits
 * non-zero on any mismatch.
 */
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "chain/chain.h"
#include "harness.h"
#include "io/dna.h"
#include "simd/simd.h"
#include "simdata/genome.h"
#include "util/rng.h"
#include "util/timer.h"

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options = bench::Options::parse(argc, argv);
    bench::printHeader("Ablation: chain engine vs anchor density",
                       "scalar vs gb::simd chaining DP",
                       options);
    std::cout << "active SIMD level: "
              << simd::simdLevelName(simd::activeSimdLevel())
              << " (" << simd::simdLanes(simd::activeSimdLevel())
              << " lanes)\n\n";

    const u64 num_pairs =
        options.size == DatasetSize::kTiny ? 40 : 400;
    GenomeParams gp;
    gp.length = 300'000;
    gp.seed = 141;
    const Genome genome = generateGenome(gp);

    Table table("Engine sweep over minimizer window w");
    table.setHeader({"w", "anchors/pair", "scalar (s)", "simd (s)",
                     "speedup", "identical"});
    bool all_identical = true;
    for (const u32 w : {20u, 10u, 5u}) {
        Rng rng(142); // same reads at every density
        const MinimizerParams mp{15, w};
        std::vector<std::vector<Anchor>> anchor_sets;
        u64 total_anchors = 0;
        for (u64 i = 0; i < num_pairs; ++i) {
            const u64 len = 4000 + rng.below(6000);
            const u64 overlap = len / 2;
            const u64 a_pos = rng.below(genome.seq.size() - 2 * len);
            const u64 b_pos = a_pos + (len - overlap);
            auto noisy = [&](u64 pos, u64 l) {
                std::string out;
                for (char c : genome.seq.substr(pos, l)) {
                    if (rng.chance(0.04)) continue;
                    if (rng.chance(0.04)) out += "ACGT"[rng.below(4)];
                    out += rng.chance(0.03) ? "ACGT"[rng.below(4)]
                                            : c;
                }
                return out;
            };
            const auto a = encodeDna(noisy(a_pos, len));
            const auto b = encodeDna(noisy(b_pos, len));
            anchor_sets.push_back(
                matchAnchors(extractMinimizers(a, mp),
                             extractMinimizers(b, mp), mp.k));
            total_anchors += anchor_sets.back().size();
        }

        const ChainParams params;
        // Best of several repetitions: the per-density totals are
        // milliseconds, so a single pass is at the mercy of whatever
        // else the host is running.
        constexpr u32 kReps = 5;
        double scalar_s = 1e300;
        std::vector<std::vector<Chain>> scalar_chains;
        for (u32 rep = 0; rep < kReps; ++rep) {
            WallTimer scalar_timer;
            std::vector<std::vector<Chain>> out;
            out.reserve(anchor_sets.size());
            NullProbe probe;
            for (const auto& anchors : anchor_sets) {
                out.push_back(chainAnchors(anchors, params, probe));
            }
            scalar_s = std::min(scalar_s, scalar_timer.seconds());
            scalar_chains = std::move(out);
        }

        double simd_s = 1e300;
        std::vector<std::vector<Chain>> simd_chains;
        for (u32 rep = 0; rep < kReps; ++rep) {
            WallTimer simd_timer;
            std::vector<std::vector<Chain>> out;
            out.reserve(anchor_sets.size());
            for (const auto& anchors : anchor_sets) {
                out.push_back(chainAnchors(anchors, params));
            }
            simd_s = std::min(simd_s, simd_timer.seconds());
            simd_chains = std::move(out);
        }

        bool identical = true;
        for (u64 i = 0; i < anchor_sets.size(); ++i) {
            if (scalar_chains[i].size() != simd_chains[i].size()) {
                identical = false;
                break;
            }
            for (u64 c = 0; c < scalar_chains[i].size(); ++c) {
                if (scalar_chains[i][c].score !=
                        simd_chains[i][c].score ||
                    scalar_chains[i][c].anchors !=
                        simd_chains[i][c].anchors) {
                    identical = false;
                    break;
                }
            }
            if (!identical) break;
        }
        all_identical = all_identical && identical;

        table.newRow()
            .cell(w)
            .cell(total_anchors / num_pairs)
            .cellF(scalar_s, 3)
            .cellF(simd_s, 3)
            .cellF(simd_s > 0 ? scalar_s / simd_s : 0.0, 2)
            .cell(identical ? "yes" : "NO");
    }
    bench::report(table);
    std::cout << "\nExpected: the speedup grows with anchor density "
                 "(fuller predecessor windows keep more SIMD lanes "
                 "busy); every row must report identical chains.\n";
    if (!all_identical) {
        std::cerr << "FAIL: scalar and simd chains diverged\n";
        return EXIT_FAILURE;
    }
    return 0;
}
