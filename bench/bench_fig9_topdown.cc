/**
 * @file
 * Fig. 9 reproduction: top-down pipeline-slot attribution (retiring /
 * front-end / bad speculation / memory-bound / core-bound) from the
 * analytical core model (DESIGN.md §5).
 *
 * Paper shape: fmi 44.4 % and kmer-cnt 86.6 % of slots memory-bound;
 * bsw/chain/phmm retire > 50 % and are otherwise core-bound (port
 * pressure); grm retires the most (87.7 %).
 * Dataset: each selected kernel's prepared dataset at --size.
 */
#include <iostream>

#include "arch/cache_sim.h"
#include "arch/topdown.h"
#include "harness.h"

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options =
        bench::Options::parse(argc, argv, DatasetSize::kSmall);
    bench::printHeader("Fig. 9", "top-down bottleneck analysis",
                       options);

    Table table("Pipeline-slot attribution (percent)");
    table.setHeader({"kernel", "retiring", "front-end", "bad-spec",
                     "mem-bound", "core-bound"});
    for (const auto& name : options.kernelList()) {
        auto kernel = createKernel(name);
        kernel->prepare(options.size);
        CacheSim cache;
        CharProbe probe(&cache);
        kernel->characterize(probe);
        const auto result = topDownAnalyze(probe.counts(), cache,
                                           probe.mispredicts());
        table.newRow()
            .cell(name)
            .cellF(result.retiring * 100.0, 1)
            .cellF(result.frontend_bound * 100.0, 1)
            .cellF(result.bad_speculation * 100.0, 1)
            .cellF(result.backend_memory * 100.0, 1)
            .cellF(result.backend_core * 100.0, 1);
    }
    bench::report(table);
    std::cout << "\nShape check: kmer-cnt then fmi are the most "
                 "memory-bound; grm retires the highest fraction; "
                 "bsw/phmm/chain split between retiring and "
                 "core-bound.\n";
    return 0;
}
