/**
 * @file
 * Per-kernel wall-clock microbenchmarks (google-benchmark): one timed
 * entry per suite kernel on the small dataset, single-threaded, plus a
 * 4-thread variant. This is the suite's "runtime" view complementing
 * the per-table characterization binaries.
 *
 * Kernels with a real SIMD engine (bsw, phmm, fmi, kmer-cnt, chain,
 * spoa) get one timed entry per engine so the measured scalar-vs-SIMD
 * speedup sits next to the modeled cell-update ratio from bench_fig3. `--engine=scalar|simd`
 * restricts registration to one engine (default: both), e.g.
 *
 *   bench_kernels --engine=simd --benchmark_filter=bsw
 *
 * `--size=tiny|small|large` selects the dataset preset (default tiny)
 * and `--json=FILE` mirrors every timed entry into a gb-metrics-v1
 * JSON file (docs/metrics.md); all other flags go to google-benchmark.
 */
#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/benchmark.h"
#include "metrics/metrics_sink.h"
#include "simd/simd.h"

namespace {

using namespace gb;

DatasetSize g_size = DatasetSize::kTiny;

metrics::MetricsSink&
sink()
{
    static metrics::MetricsSink instance;
    return instance;
}

/** Console output plus one metrics row per timed entry. */
class SinkReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run>& runs) override
    {
        ConsoleReporter::ReportRuns(runs);
        for (const Run& run : runs) {
            if (run.error_occurred) continue;
            auto row = sink().newRow("kernels");
            row.str("name", run.benchmark_name())
                .num("real_ms", run.GetAdjustedRealTime())
                .num("cpu_ms", run.GetAdjustedCPUTime())
                .count("iterations",
                       static_cast<u64>(run.iterations));
            for (const auto& [key, counter] : run.counters) {
                row.num(key, counter.value);
            }
        }
    }
};

void
runKernel(benchmark::State& state, const std::string& name,
          unsigned threads, Engine engine)
{
    auto kernel = createKernel(name);
    kernel->prepare(g_size);
    kernel->setEngine(engine);
    // engine:scalar is the suite's no-SIMD reference row. Kernels that
    // route shared helpers through the gb::simd dispatcher (fmi's occ
    // resolution) would otherwise still pick up vector code on a
    // capable host, understating the engine:simd speedup.
    if (engine == Engine::kScalar) {
        simd::setSimdLevel(simd::SimdLevel::kScalar);
    }
    ThreadPool pool(threads);
    u64 tasks = 0;
    for (auto _ : state) {
        tasks = kernel->run(pool);
    }
    if (engine == Engine::kScalar) simd::resetSimdLevel();
    state.counters["tasks"] = static_cast<double>(tasks);
    state.SetItemsProcessed(static_cast<i64>(tasks) *
                            state.iterations());
}

/** Kernels with a non-scalar execution engine: gb::simd lockstep
 *  batches (bsw, phmm), gb::mlp prefetch-pipelined batches with SIMD
 *  occ resolution (fmi, kmer-cnt), or the wave-3 vectorized DPs
 *  (chain, spoa). */
bool
hasSimdEngine(const std::string& name)
{
    return name == "bsw" || name == "phmm" || name == "fmi" ||
           name == "kmer-cnt" || name == "chain" || name == "spoa";
}

void
registerOne(const std::string& name, unsigned threads, Engine engine,
            bool suffix_engine)
{
    std::string label = name + "/threads:" + std::to_string(threads);
    if (suffix_engine) {
        label += std::string("/engine:") + engineName(engine);
    }
    benchmark::RegisterBenchmark(
        label.c_str(),
        [name, threads, engine](benchmark::State& state) {
            runKernel(state, name, threads, engine);
        })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.2);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace gb;
    // Pre-parse and strip --engine/--size/--json; everything
    // else goes to google-benchmark (--benchmark_filter etc.).
    bool want_scalar = true;
    bool want_simd = true;
    std::string json_path;
    int out = 1;
    try {
        for (int i = 1; i < argc; ++i) {
            if (std::strncmp(argv[i], "--engine=", 9) == 0) {
                const Engine engine = parseEngine(argv[i] + 9);
                want_scalar = engine == Engine::kScalar;
                want_simd = engine == Engine::kSimd;
            } else if (std::strncmp(argv[i], "--size=", 7) == 0) {
                g_size = parseDatasetSize(argv[i] + 7);
            } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
                json_path = argv[i] + 7;
                requireInput(!json_path.empty(),
                             "--json expects a file path");
            } else {
                argv[out++] = argv[i];
            }
        }
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 2;
    }
    argc = out;

    if (!json_path.empty()) {
        metrics::RunMeta meta;
        meta.experiment = "bench_kernels";
        meta.paper_ref = "per-kernel wall-clock microbenchmarks";
        meta.size = datasetSizeName(g_size);
        meta.threads = 0; // per-entry; encoded in each row's name
        meta.engine = want_scalar == want_simd ? "both"
                      : want_scalar            ? "scalar"
                                               : "simd";
        meta.simd_level =
            simd::simdLevelName(simd::activeSimdLevel());
        sink().open(json_path, std::move(meta));
    }

    const bool both = want_scalar && want_simd;
    for (const auto& name : kernelNames()) {
        for (unsigned threads : {1u, 4u}) {
            if (!hasSimdEngine(name)) {
                registerOne(name, threads, Engine::kScalar, false);
                continue;
            }
            if (want_scalar) {
                registerOne(name, threads, Engine::kScalar, both);
            }
            if (want_simd) {
                registerOne(name, threads, Engine::kSimd, both);
            }
        }
    }
    benchmark::Initialize(&argc, argv);
    benchmark::AddCustomContext(
        "gb_simd_level",
        simd::simdLevelName(simd::activeSimdLevel()));
    SinkReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
}
