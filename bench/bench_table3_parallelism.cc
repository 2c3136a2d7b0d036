/**
 * @file
 * Table III reproduction: parallelism granularity and data-parallel
 * computation of the irregular CPU benchmarks, with the measured
 * per-task work statistics backing the classification.
 * Dataset: each selected irregular kernel's prepared dataset at
 * --size.
 */
#include <iostream>

#include "harness.h"
#include "util/stats.h"

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options =
        bench::Options::parse(argc, argv, DatasetSize::kTiny);
    bench::printHeader(
        "Table III",
        "parallelism granularity / data-parallel computation", options);

    Table table("Irregular CPU benchmarks");
    table.setHeader({"kernel", "granularity", "data-parallel unit",
                     "tasks", "mean work/task", "max work/task"});
    for (const auto& name : options.kernelList()) {
        auto kernel = createKernel(name);
        const auto& info = kernel->info();
        if (info.regular || info.gpu) continue; // Table III scope
        kernel->prepare(options.size);
        RunningStats stats;
        for (u64 w : kernel->taskWork()) {
            stats.add(static_cast<double>(w));
        }
        table.newRow()
            .cell(info.name)
            .cell(info.granularity)
            .cell(info.work_unit)
            .cell(stats.count())
            .cell(formatCount(static_cast<u64>(stats.mean())))
            .cell(formatCount(static_cast<u64>(stats.max())));
    }
    bench::report(table);
    std::cout << "\nPaper shape check: every kernel above is "
                 "data-parallel at read/region granularity with "
                 "input-dependent per-task work.\n";
    return 0;
}
