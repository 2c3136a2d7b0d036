#include "harness.h"

#include <cstring>
#include <iostream>
#include <sstream>

#include "simd/simd.h"
#include "store/cache.h"
#include "util/parse.h"

namespace gb::bench {

namespace {

/** Flags every bench binary understands (name only, sans value). */
const std::vector<std::string> kKnownFlags = {
    "--size", "--threads", "--kernels", "--cache-dir", "--json",
    "--help"};

constexpr const char* kUsage =
    "usage: bench_* [options]\n"
    "  --size=tiny|small|large  dataset preset\n"
    "  --threads=N              worker threads for timed runs\n"
    "  --kernels=a,b,c          restrict to a kernel subset\n"
    "  --cache-dir=DIR          gb::store artifact cache\n"
    "  --json=FILE              write gb-metrics-v1 JSON "
    "(docs/metrics.md)\n"
    "  --help, -h               this text\n"
    "GB_SIMD_LEVEL=scalar|sse4|avx2 in the environment selects the\n"
    "dispatch level (docs/simd.md)\n";

} // namespace

const std::vector<std::string>&
knownFlags()
{
    return kKnownFlags;
}

const char*
usageText()
{
    return kUsage;
}

Options
Options::parseStrict(int argc, char** argv, DatasetSize default_size)
{
    Options opt;
    opt.size = default_size;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* prefix) -> std::string {
            return arg.substr(std::strlen(prefix));
        };
        if (arg.rfind("--size=", 0) == 0) {
            opt.size = parseDatasetSize(value("--size="));
        } else if (arg.rfind("--threads=", 0) == 0) {
            opt.threads = parseUnsigned(
                "--threads", value("--threads="), 0, kMaxThreads);
        } else if (arg.rfind("--kernels=", 0) == 0) {
            const std::vector<std::string> known = kernelNames();
            std::istringstream list(value("--kernels="));
            std::string name;
            while (std::getline(list, name, ',')) {
                if (name.empty()) continue;
                requireKnownName("--kernels: unknown kernel", name, known);
                opt.kernels.push_back(name);
            }
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            opt.cache_dir = value("--cache-dir=");
            requireInput(!opt.cache_dir.empty(),
                         "--cache-dir expects a directory path");
        } else if (arg.rfind("--json=", 0) == 0) {
            opt.json_path = value("--json=");
            requireInput(!opt.json_path.empty(),
                         "--json expects a file path");
        } else if (arg == "--help" || arg == "-h") {
            // Help wins over everything after it; the caller decides
            // what to print (parse() shows usageText() and exits 0).
            opt.help = true;
            return opt;
        } else {
            throw InputError(unknownOption(arg, kKnownFlags));
        }
    }
    return opt;
}

Options
Options::parse(int argc, char** argv, DatasetSize default_size)
{
    try {
        const Options opt = parseStrict(argc, argv, default_size);
        if (opt.help) {
            std::cout << kUsage;
            std::exit(0);
        }
        if (!opt.cache_dir.empty()) {
            store::setCacheDir(opt.cache_dir);
        }
        simd::activeSimdLevel(); // reject a mistyped GB_SIMD_LEVEL
        return opt;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what()
                  << "\nrun with --help for usage\n";
        std::exit(2);
    }
}

std::vector<std::string>
Options::kernelList() const
{
    if (kernels.empty()) return kernelNames();
    return kernels;
}

metrics::MetricsSink&
metricsSink()
{
    static metrics::MetricsSink sink;
    return sink;
}

std::string
orNA(double value, int precision)
{
    if (value < 0.0) return "n/a";
    return formatF(value, precision);
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
        if (!metricsSink().enabled()) {
            metrics::RunMeta meta;
            meta.experiment = experiment;
            meta.paper_ref = paper_ref;
            meta.size = datasetSizeName(options.size);
            meta.threads = options.threads;
            meta.simd_level =
                simd::simdLevelName(simd::activeSimdLevel());
            metricsSink().open(options.json_path, std::move(meta));
        }
    }
    std::cout << "\n\n";
}

void
report(const Table& table)
{
    table.print(std::cout);
    metrics::emitTable(metricsSink(), table);
}

} // namespace gb::bench
