/**
 * @file
 * Ablation: chain predecessor-window size N (the paper quotes
 * Minimap2's default of 25 previous anchors).
 *
 * Larger windows examine more candidate predecessors per anchor —
 * linearly more DP work — while chain quality saturates once the
 * window covers the local anchor density.
 *
 * Dataset: the chain kernel's prepared anchor sets at --size
 * (chainAnchorSets()), one per overlapping read pair.
 */
#include <iostream>

#include "chain/chain.h"
#include "core/kernels.h"
#include "harness.h"
#include "util/timer.h"

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options = bench::Options::parse(argc, argv);
    bench::printHeader("Ablation: chain predecessor window",
                       "work vs chain quality (default N=25)",
                       options);

    const auto kernel = createKernel("chain");
    kernel->prepare(options.size);
    const std::span<const std::vector<Anchor>> anchor_sets =
        chainAnchorSets(*kernel);
    const u64 num_pairs = anchor_sets.size();

    Table table("Predecessor window sweep");
    table.setHeader({"N", "time (ms)", "mean best score",
                     "chained pairs"});
    for (const u32 window : {5u, 10u, 25u, 50u, 100u}) {
        ChainParams params;
        params.pred_window = window;
        double total_score = 0.0;
        u64 chained = 0;
        WallTimer timer;
        for (const auto& anchors : anchor_sets) {
            const auto chains = chainAnchors(anchors, params);
            if (!chains.empty()) {
                total_score += chains.front().score;
                ++chained;
            }
        }
        table.newRow()
            .cell(window)
            .cellF(timer.seconds() * 1e3, 2)
            .cellF(total_score / static_cast<double>(num_pairs), 1)
            .cell(std::to_string(chained) + "/" +
                  std::to_string(num_pairs));
    }
    bench::report(table);
    std::cout << "\nExpected: runtime grows with N; the best-chain "
                 "score saturates near the Minimap2 default (25), "
                 "which is why the tool caps the window.\n";
    return 0;
}
