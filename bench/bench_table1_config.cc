/**
 * @file
 * Table I reproduction: baseline system configuration.
 *
 * The paper reports its Xeon E3-1240 v5 testbed; we report the actual
 * host next to the modelled hierarchy used by the cache simulator
 * (which is configured to the paper's machine).
 * Dataset: none; it reads the host and the cache model.
 */
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "arch/cache_sim.h"
#include "harness.h"

namespace {

std::string
cpuModelName()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(colon + 2);
            }
        }
    }
    return "unknown";
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options = bench::Options::parse(argc, argv);
    bench::printHeader("Table I", "baseline system configuration",
                       options);

    Table host("Host machine (actual)");
    host.setHeader({"component", "value"});
    host.newRow().cell("CPU").cell(cpuModelName());
    host.newRow().cell("hardware threads").cell(
        std::thread::hardware_concurrency());

    const CacheHierarchyConfig model;
    Table modeled("Modelled hierarchy (paper Table I machine)");
    modeled.setHeader({"level", "size", "assoc", "line"});
    auto row = [&](const char* name, const CacheLevelConfig& c) {
        modeled.newRow()
            .cell(name)
            .cell(std::to_string(c.size_bytes / 1024) + " KB")
            .cell(c.associativity)
            .cell(std::to_string(c.line_bytes) + " B");
    };
    row("L1D", model.l1);
    row("L2", model.l2);
    row("LLC", model.llc);
    modeled.newRow()
        .cell("DRAM row")
        .cell(std::to_string(model.dram_row_bytes / 1024) + " KB")
        .cell(model.dram_banks)
        .cell("-");

    bench::report(host);
    std::cout << '\n';
    bench::report(modeled);
    return 0;
}
