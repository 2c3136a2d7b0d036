/**
 * @file
 * Table IV reproduction: GPU kernel control-flow and compute
 * regularity for abea and nn-base (branch efficiency, warp execution
 * efficiency, non-predicated efficiency, SM utilization, occupancy).
 *
 * Paper values (Titan Xp, nvprof): abea 100 / 75.09 / 70.18 / 70.53 /
 * 31.41 %; nn-base 100 / 100 / 94.43 / 99.83 / 88.47 %.
 * Dataset: the abea and nn-base kernels' prepared datasets at --size.
 */
#include <iostream>

#include "gpu_replay.h"
#include "harness.h"

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options =
        bench::Options::parse(argc, argv, DatasetSize::kSmall);
    bench::printHeader("Table IV",
                       "GPU control flow and compute regularity",
                       options);

    const auto abea_kernel = createKernel("abea");
    abea_kernel->prepare(options.size);
    SimtModel abea_model;
    const SimtStats abea = bench::replayAbeaGpu(*abea_kernel, abea_model);
    const auto nn_kernel = createKernel("nn-base");
    nn_kernel->prepare(options.size);
    SimtModel nn_model;
    const SimtStats nn = bench::replayNnBaseGpu(*nn_kernel, nn_model);

    Table table("GPU kernel regularity (percent)");
    table.setHeader({"metric", "abea", "nn-base", "paper abea",
                     "paper nn-base"});
    auto row = [&](const char* metric, double a, double n,
                   const char* pa, const char* pn) {
        table.newRow()
            .cell(metric)
            .cellF(a * 100.0, 2)
            .cellF(n * 100.0, 2)
            .cell(pa)
            .cell(pn);
    };
    row("Branch efficiency", abea.branchEfficiency(),
        nn.branchEfficiency(), "100", "100");
    row("Warp efficiency", abea.warpEfficiency(),
        nn.warpEfficiency(), "75.09", "100");
    row("Non-predicated warp efficiency",
        abea.nonPredicatedEfficiency(), nn.nonPredicatedEfficiency(),
        "70.18", "94.43");
    row("SM utilization", abea.sm_utilization, nn.sm_utilization,
        "70.53", "99.83");
    row("Occupancy", abea.occupancy, nn.occupancy, "31.41", "88.47");
    bench::report(table);

    std::cout << "\nShape check: nn-base must be the (near-)perfectly "
                 "regular kernel on every row; abea loses warp "
                 "efficiency to the adaptive band and occupancy to "
                 "its shared-memory footprint.\n";
    return 0;
}
