/**
 * @file
 * Table V reproduction: useful fraction of GPU global memory
 * bandwidth (load/store efficiency after coalescing) for abea and
 * nn-base.
 *
 * Paper values: abea 25.5 % load / 68.5 % store; nn-base 70.3 % load /
 * 100 % store.
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
    bench::printHeader("Table V", "GPU global memory efficiency",
                       options);

    const auto abea_kernel = createKernel("abea");
    abea_kernel->prepare(options.size);
    SimtModel abea_model;
    const SimtStats abea = bench::replayAbeaGpu(*abea_kernel, abea_model);
    const auto nn_kernel = createKernel("nn-base");
    nn_kernel->prepare(options.size);
    SimtModel nn_model;
    const SimtStats nn = bench::replayNnBaseGpu(*nn_kernel, nn_model);

    Table table("Useful fraction of global memory bandwidth (percent)");
    table.setHeader(
        {"metric", "abea", "nn-base", "paper abea", "paper nn-base"});
    table.newRow()
        .cell("Global load efficiency")
        .cellF(abea.globalLoadEfficiency() * 100.0, 2)
        .cellF(nn.globalLoadEfficiency() * 100.0, 2)
        .cell("25.5")
        .cell("70.3");
    table.newRow()
        .cell("Global store efficiency")
        .cellF(abea.globalStoreEfficiency() * 100.0, 2)
        .cellF(nn.globalStoreEfficiency() * 100.0, 2)
        .cell("68.5")
        .cell("100");
    bench::report(table);

    std::cout << "\nShape check: abea's pore-model gathers and AoS "
                 "event/trace structures waste most of each 32 B "
                 "transaction; nn-base streams activations and writes "
                 "contiguous outputs.\n";
    return 0;
}
