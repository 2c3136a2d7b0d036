/**
 * @file
 * Table II reproduction: benchmark overview — source tool, parallelism
 * motif, regular/irregular compute, CPU/GPU — plus measured task
 * counts on the selected dataset.
 * Dataset: each selected kernel's prepared dataset at --size.
 */
#include <iostream>

#include "harness.h"

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options =
        bench::Options::parse(argc, argv, DatasetSize::kTiny);
    bench::printHeader("Table II", "benchmark overview / motifs",
                       options);

    Table table("Benchmark overview");
    table.setHeader({"kernel", "source tool", "motif", "compute",
                     "target", "tasks"});
    for (const auto& name : options.kernelList()) {
        auto kernel = createKernel(name);
        kernel->prepare(options.size);
        const auto work = kernel->taskWork();
        const auto& info = kernel->info();
        table.newRow()
            .cell(info.name)
            .cell(info.source_tool)
            .cell(info.motif)
            .cell(info.regular ? "regular" : "irregular")
            .cell(info.gpu ? "GPU" : "CPU")
            .cell(work.size());
    }
    bench::report(table);
    return 0;
}
