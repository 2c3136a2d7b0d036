#include "harness.h"

#include <iostream>

#include "simd/simd.h"

namespace gb::bench {

Options
Options::parse(int argc, char** argv, DatasetSize default_size)
{
    return {cli::parseOrExit(cli::FrontEnd::kBench, argc, argv,
                             default_size)};
}

void
printHeader(const std::string& experiment, const std::string& paper_ref,
            const Options& options)
{
    std::cout << "### GenomicsBench reproduction: " << experiment
              << "\n### paper reference: " << paper_ref
              << "\n### dataset: " << datasetSizeName(options.size)
              << ", threads: "
              << (options.threads ? std::to_string(options.threads)
                                  : std::string("auto"))
              << ", simd: "
              << simd::simdLevelName(simd::activeSimdLevel());
    if (!options.cache_dir.empty()) {
        std::cout << ", artifact cache: " << options.cache_dir;
    }
    if (!options.json_path.empty()) {
        std::cout << ", json: " << options.json_path;
        cli::openMetrics(options, experiment, paper_ref);
    }
    std::cout << "\n\n";
}

} // namespace gb::bench
