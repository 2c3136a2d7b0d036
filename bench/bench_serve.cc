/**
 * @file
 * gb::serve throughput bench: the same job list executed serially
 * (one kernel at a time, the pre-serve model) and through the
 * Scheduler, each against its own cold artifact cache.
 *
 * Two things are being measured:
 *
 *  - jobs/sec: the scheduler overlaps independent jobs over the
 *    worker budget, so a list of narrow jobs should finish ~workers
 *    times faster than running them back to back (bounded by the
 *    host's real cores).
 *
 *  - prepare dedup: all jobs share one prepared artifact. Serially
 *    the first job builds it and the rest load it; under the
 *    scheduler all jobs race into prepare() at once and the
 *    ArtifactCache single-flight must still build it exactly once
 *    (builds == 1, the rest recorded as flight waits or cache hits).
 *
 * Defaults: 8 jobs of fmi (threads=1 each), workers = --threads.
 * --kernels selects other kernels; each gets its own row.
 */
#include <filesystem>
#include <functional>
#include <iostream>
#include <thread>
#include <vector>

#include "core/measure.h"
#include "harness.h"
#include "serve/scheduler.h"
#include "store/cache.h"

namespace {

using namespace gb;

constexpr unsigned kJobs = 8;

/** Cache builds + flight waits recorded while `fn` runs. */
struct CacheDelta
{
    u64 builds = 0;
    u64 flight_waits = 0;
};

CacheDelta
withColdCache(const std::string& dir,
              const std::function<void()>& fn)
{
    std::filesystem::create_directories(dir);
    store::setCacheDir(dir);
    const auto& cache = store::globalCache();
    const u64 builds0 = cache.builds();
    const u64 waits0 = cache.flightWaits();
    fn();
    return {cache.builds() - builds0, cache.flightWaits() - waits0};
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options = bench::Options::parse(argc, argv);
    bench::printHeader("serve throughput",
                       "batch serving vs serial execution", options);
    const unsigned workers =
        options.threads ? options.threads
                        : std::max(1u,
                                   std::thread::hardware_concurrency());
    std::cout << "jobs per kernel: " << kJobs << ", workers: "
              << workers << " (host hardware threads: "
              << std::thread::hardware_concurrency() << ")\n\n";

    // Each phase gets a cold cache so both pay the build cost once;
    // --cache-dir relocates the scratch root.
    const std::string root =
        (options.cache_dir.empty()
             ? (std::filesystem::temp_directory_path() /
                "gb_bench_serve")
                   .string()
             : options.cache_dir) +
        "/run";
    std::filesystem::remove_all(root);

    const std::vector<std::string> kernels =
        options.kernels.empty() ? std::vector<std::string>{"fmi"}
                                : options.kernels;

    Table table("Serial vs served (" + std::to_string(kJobs) +
                " jobs each)");
    table.setHeader({"kernel", "serial s", "serve s", "speedup",
                     "jobs/s", "builds", "flight waits", "qw p95 ms",
                     "e2e p95 ms"});
    for (const auto& name : kernels) {
        // Serial baseline: the pre-serve model, one job at a time on
        // one thread. The cache still dedups across jobs (first
        // builds, later ones load) — serial pays latency, not
        // redundant builds.
        WallTimer serial_timer;
        const auto serial_delta =
            withColdCache(root + "/serial-" + name, [&] {
                for (unsigned i = 0; i < kJobs; ++i) {
                    auto kernel = createKernel(name);
                    Measurement measured;
                    measurePrepare(*kernel, options.size, measured);
                    ThreadPool pool(1);
                    measureRepeats(*kernel, pool, 1, measured);
                }
            });
        const double serial_seconds = serial_timer.seconds();

        // Served: same jobs submitted at once; prepare() calls race
        // and the single-flight cache must collapse them to 1 build.
        WallTimer serve_timer;
        serve::Scheduler::LatencySnapshot latency;
        const auto serve_delta =
            withColdCache(root + "/serve-" + name, [&] {
                serve::Scheduler::Config config;
                config.workers = workers;
                config.queue_depth = kJobs;
                serve::Scheduler scheduler(std::move(config));
                std::vector<serve::JobHandle> handles;
                for (unsigned i = 0; i < kJobs; ++i) {
                    serve::JobSpec spec;
                    spec.kernel = name;
                    spec.size = options.size;
                    spec.threads = 1;
                    // Mixed priority classes exercise the classed
                    // dispatch path; with identical jobs the
                    // throughput result is unchanged.
                    spec.priority =
                        static_cast<serve::Priority>(i % 3);
                    handles.push_back(scheduler.submit(spec));
                }
                scheduler.drain();
                // Snapshot before the scheduler (and its histograms)
                // goes out of scope with this lambda.
                latency = scheduler.stats().latency;
                for (const auto& handle : handles) {
                    if (handle.status() != serve::JobStatus::kDone) {
                        std::cerr << "job failed: " << handle.error()
                                  << '\n';
                    }
                }
            });
        const double serve_seconds = serve_timer.seconds();

        const double speedup =
            serve_seconds > 0.0 ? serial_seconds / serve_seconds : 0.0;
        const double jobs_per_sec =
            serve_seconds > 0.0 ? kJobs / serve_seconds : 0.0;
        table.newRow()
            .cell(name)
            .cellF(serial_seconds, 3)
            .cellF(serve_seconds, 3)
            .cellF(speedup, 2)
            .cellF(jobs_per_sec, 2)
            .cell(std::to_string(serve_delta.builds))
            .cell(std::to_string(serve_delta.flight_waits))
            .cellF(latency.queue_wait.p95_ms, 2)
            .cellF(latency.end_to_end.p95_ms, 2);
        bench::metricsSink()
            .newRow("serve_bench")
            .str("kernel", name)
            .count("jobs", kJobs)
            .count("workers", workers)
            .num("serial_seconds", serial_seconds)
            .num("serve_seconds", serve_seconds)
            .num("speedup", speedup)
            .num("jobs_per_sec", jobs_per_sec)
            .count("serial_builds", serial_delta.builds)
            .count("serve_builds", serve_delta.builds)
            .count("serve_flight_waits", serve_delta.flight_waits)
            .num("queue_wait_p50_ms", latency.queue_wait.p50_ms)
            .num("queue_wait_p95_ms", latency.queue_wait.p95_ms)
            .num("queue_wait_p99_ms", latency.queue_wait.p99_ms)
            .num("e2e_p50_ms", latency.end_to_end.p50_ms)
            .num("e2e_p95_ms", latency.end_to_end.p95_ms)
            .num("e2e_p99_ms", latency.end_to_end.p99_ms);
    }
    bench::report(table);
    std::cout << "\nbuilds counts prepare() artifact builds during the "
                 "served phase: 1 means the\nsingle-flight cache "
                 "collapsed all " << kJobs << " concurrent prepares "
                 "into one build.\n";
    std::filesystem::remove_all(root);
    return 0;
}
