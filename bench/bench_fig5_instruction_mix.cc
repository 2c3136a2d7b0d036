/**
 * @file
 * Fig. 5 reproduction: dynamic operation-class breakdown per kernel
 * (the MICA-pintool substitute — see DESIGN.md §5). The paper excludes
 * grm (measurement artifact) and characterizes CPU kernels; we print
 * all kernels and flag the GPU ones.
 *
 * Paper shape: phmm is the only FP-heavy CPU kernel; phmm/bsw/spoa are
 * vector-heavy; fmi is load-dominated; the rest are scalar-integer
 * dominated.
 * Dataset: each selected kernel's prepared dataset at --size.
 */
#include <iostream>

#include "harness.h"

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options =
        bench::Options::parse(argc, argv, DatasetSize::kSmall);
    bench::printHeader("Fig. 5", "dynamic instruction breakdown",
                       options);

    Table table("Operation-class fractions (percent of dynamic ops)");
    table.setHeader({"kernel", "int", "fp", "vector", "load", "store",
                     "branch", "other"});
    for (const auto& name : options.kernelList()) {
        auto kernel = createKernel(name);
        kernel->prepare(options.size);
        CharProbe probe(nullptr); // counts only; no cache simulation
        kernel->characterize(probe);
        const OpCounts& counts = probe.counts();
        table.newRow().cell(name + (kernel->info().gpu ? " (GPU)" : ""));
        for (OpClass c : {OpClass::kIntAlu, OpClass::kFpAlu,
                          OpClass::kVecAlu, OpClass::kLoad,
                          OpClass::kStore, OpClass::kBranch,
                          OpClass::kOther}) {
            table.cellF(counts.fraction(c) * 100.0, 1);
        }
    }
    bench::report(table);
    std::cout << "\nShape check: phmm is the only FP-significant CPU "
                 "kernel; phmm/bsw/spoa carry the vector share; fmi "
                 "is the most load-heavy.\n";
    return 0;
}
