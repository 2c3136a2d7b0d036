/**
 * @file
 * genomicsbench — command-line driver for the suite.
 *
 * Subcommands: list, info, run, characterize, store build|inspect|
 * verify, serve and client. Their operands, flags and usage lines are
 * in the shared parser (core/cli.h), which rejects any flag a
 * subcommand does not take, an unknown kernel name and a bad value
 * with exit 2 before anything runs; a failure while running exits 1.
 *
 * `run` times the kernel (wall clock, tasks/s) and prints the SIMD
 * dispatch level it ran at; every kernel has one run path, and
 * GB_SIMD_LEVEL=scalar gives its scalar baseline (an unknown
 * GB_SIMD_LEVEL exits 2). `characterize` prints the operation mix,
 * cache behaviour and top-down attribution for one kernel — the
 * per-kernel view of what the bench_* binaries sweep. The `store`
 * subcommands manage the gb::store artifact cache (see
 * docs/store-format.md). `serve` runs a whole job list through the
 * gb::serve scheduler (docs/serve.md): batch mode drains a job file,
 * network mode accepts jobs over TCP until DRAIN or SIGTERM. `client`
 * drives a job file against a network server. `run` and `serve` can
 * record a gb::trace timeline (Perfetto-loadable Chrome trace JSON;
 * scripts/trace_inspect.py summarizes one, see docs/tracing.md).
 */
#include <algorithm>
#include <csignal>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/cache_sim.h"
#include "arch/topdown.h"
#include "core/cli.h"
#include "core/measure.h"
#include "metrics/pooled_counters.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/job.h"
#include "serve/scheduler.h"
#include "simd/simd.h"
#include "store/cache.h"
#include "store/container.h"
#include "trace/trace.h"
#include "util/timer.h"

namespace {

using namespace gb;
using cli::report;

/**
 * Run `fn` with gb::trace armed when a trace path was given: start
 * the collector, run the command, stop, export. Export happens after
 * every worker quiesced (commands drain/join before returning) and
 * even when the command fails — a trace of the failing run is the
 * most useful kind.
 */
int
runTraced(const std::string& trace_path, const std::function<int()>& fn)
{
    if (trace_path.empty()) return fn();
    trace::start();
    int rc = 1;
    try {
        rc = fn();
    } catch (...) {
        trace::stop();
        throw;
    }
    trace::stop();
    const auto st = trace::writeChromeTraceFile(trace_path);
    std::cout << "trace: " << st.events << " events from " << st.rings
              << " threads (" << st.dropped << " dropped) -> "
              << trace_path << '\n';
    return rc;
}

int
cmdList()
{
    Table table("GenomicsBench kernels");
    table.setHeader({"kernel", "source tool", "motif", "target"});
    for (const auto& name : kernelNames()) {
        const auto kernel = createKernel(name);
        const auto& info = kernel->info();
        table.newRow()
            .cell(info.name)
            .cell(info.source_tool)
            .cell(info.motif)
            .cell(info.gpu ? "GPU" : "CPU");
    }
    table.print(std::cout);
    return 0;
}

int
cmdInfo(const std::string& name)
{
    const auto kernel = createKernel(name);
    const auto& info = kernel->info();
    std::cout << "kernel:       " << info.name << '\n'
              << "source tool:  " << info.source_tool << '\n'
              << "motif:        " << info.motif << '\n'
              << "granularity:  " << info.granularity << '\n'
              << "work unit:    " << info.work_unit << '\n'
              << "compute:      "
              << (info.regular ? "regular" : "irregular") << '\n'
              << "paper target: " << (info.gpu ? "GPU" : "CPU")
              << '\n';
    return 0;
}

int
cmdRun(const cli::Options& opt)
{
    const std::string& name = opt.operands.front();
    auto kernel = createKernel(name);
    std::cout << name << ": simd level "
              << simd::simdLevelName(simd::activeSimdLevel()) << '\n';
    Measurement m;
    measurePrepare(*kernel, opt.size, m);
    std::cout << "prepared in " << formatF(m.prepare_seconds, 2) << " s";
    const auto& cache = store::globalCache();
    if (cache.enabled()) {
        std::cout << " (artifact cache: " << cache.hits() << " hit"
                  << (cache.hits() == 1 ? "" : "s") << ", "
                  << cache.misses() << " miss"
                  << (cache.misses() == 1 ? "" : "es") << ")";
    }
    std::cout << "\npeak RSS after prepare: "
              << formatF(peakRssMib(), 1) << " MiB\n";

    ThreadPool pool(opt.threads);
    // One counter group per pool thread, summed per repeat, so the
    // reported counters cover the whole run at any thread count.
    metrics::PooledCounters counters(pool);
    measureRepeats(*kernel, pool, opt.repeat, m, &counters);
    for (size_t r = 0; r < m.repeat_seconds.size(); ++r) {
        const double seconds = m.repeat_seconds[r];
        const double rate = static_cast<double>(m.tasks) / seconds;
        std::cout << "run " << r + 1 << ": " << formatF(seconds, 3)
                  << " s, " << m.tasks << " tasks ("
                  << formatF(rate, 1) << " tasks/s)\n";
        cli::metricsSink().newRow("run")
            .str("kernel", name)
            .count("repeat", r + 1)
            .num("seconds", seconds)
            .count("tasks", m.tasks)
            .num("tasks_per_sec", rate);
    }
    const auto& best_sample = m.best_sample;
    const double peak_rss_mb = peakRssMib();
    std::cout << "best: " << formatF(m.bestSeconds(), 3) << " s with "
              << pool.numThreads() << " threads\n"
              << "peak RSS after run: " << formatF(peak_rss_mb, 1)
              << " MiB\n";
    // Individual counters can be missing (negative).
    const auto fmt = [](double v) {
        return v < 0.0 ? std::string("n/a")
                       : formatCount(static_cast<u64>(v));
    };
    // Measured counters for the best repeat, aggregated across every
    // pool rank (one perf group per thread).
    if (best_sample.available) {
        std::cout << "counters (whole run, " << counters.ranks()
                  << (counters.ranks() == 1 ? " rank" : " ranks")
                  << "): ipc " << formatF(best_sample.ipc(), 2)
                  << ", cycles " << fmt(best_sample.cycles)
                  << ", LLC misses " << fmt(best_sample.llc_misses)
                  << ", branch misses "
                  << fmt(best_sample.branch_misses) << '\n';
    } else {
        std::cout << "counters unavailable ("
                  << best_sample.unavailable_reason << ")";
        if (metrics::PerfSample::valid(best_sample.task_clock_seconds)) {
            std::cout << ", task-clock "
                      << formatF(best_sample.task_clock_seconds, 3)
                      << " s, page faults "
                      << fmt(best_sample.page_faults)
                      << ", context switches "
                      << fmt(best_sample.context_switches);
        }
        std::cout << '\n';
    }
    cli::metricsSink().newRow("run_best")
        .str("kernel", name)
        .num("seconds", m.bestSeconds())
        .count("threads", pool.numThreads())
        .flag("counters_available", best_sample.available)
        .num("ipc", best_sample.ipc())
        .num("cycles", best_sample.cycles)
        .num("instructions", best_sample.instructions)
        .num("llc_misses", best_sample.llc_misses)
        .num("branch_misses", best_sample.branch_misses)
        .num("task_clock_s", best_sample.task_clock_seconds)
        .num("page_faults", best_sample.page_faults)
        .num("context_switches", best_sample.context_switches)
        .num("peak_rss_mb", peak_rss_mb);
    return 0;
}

int
cmdCharacterize(const std::string& name, DatasetSize size)
{
    auto kernel = createKernel(name);
    kernel->prepare(size);

    CacheSim cache;
    CharProbe probe(&cache);
    WallTimer timer;
    const u64 tasks = kernel->characterize(probe);
    std::cout << "characterized " << tasks << " tasks in "
              << formatF(timer.seconds(), 2) << " s (simulated)\n\n";

    const OpCounts& counts = probe.counts();
    Table mix("Operation mix");
    mix.setHeader({"class", "count", "fraction"});
    for (OpClass c :
         {OpClass::kIntAlu, OpClass::kFpAlu, OpClass::kVecAlu,
          OpClass::kLoad, OpClass::kStore, OpClass::kBranch}) {
        mix.newRow()
            .cell(opClassName(c))
            .cell(formatCount(counts[c]))
            .cellF(counts.fraction(c) * 100.0, 1);
    }
    report(mix);

    Table mem("Memory behaviour");
    mem.setHeader({"metric", "value"});
    mem.newRow().cell("L1 miss rate").cellF(
        cache.l1Stats().missRate() * 100.0, 2);
    mem.newRow().cell("L2 miss rate").cellF(
        cache.l2Stats().missRate() * 100.0, 2);
    mem.newRow().cell("LLC miss rate").cellF(
        cache.llcStats().missRate() * 100.0, 2);
    mem.newRow().cell("DRAM bytes").cell(
        formatCount(cache.dramStats().bytes));
    mem.newRow().cell("DRAM row-miss rate").cellF(
        cache.dramStats().rowMissRate() * 100.0, 1);
    mem.newRow().cell("BPKI").cellF(
        static_cast<double>(cache.dramStats().bytes) /
            (static_cast<double>(counts.total()) / 1000.0),
        2);
    report(mem);

    const auto td = topDownAnalyze(counts, cache, probe.mispredicts());
    Table topdown("Top-down attribution");
    topdown.setHeader({"slot class", "percent"});
    topdown.newRow().cell("retiring").cellF(td.retiring * 100.0, 1);
    topdown.newRow().cell("front-end").cellF(
        td.frontend_bound * 100.0, 1);
    topdown.newRow().cell("bad speculation").cellF(
        td.bad_speculation * 100.0, 1);
    topdown.newRow().cell("memory bound").cellF(
        td.backend_memory * 100.0, 1);
    topdown.newRow().cell("core bound").cellF(
        td.backend_core * 100.0, 1);
    report(topdown);
    return 0;
}

/**
 * `store build`: run prepare() for the selected kernels with the
 * cache enabled, so every cache-aware artifact is materialized.
 */
int
cmdStoreBuild(const std::vector<std::string>& names, DatasetSize size)
{
    const auto& cache = store::globalCache();
    for (const auto& name : names) {
        auto kernel = createKernel(name);
        WallTimer timer;
        kernel->prepare(size);
        std::cout << name << ": prepared in "
                  << formatF(timer.seconds(), 2) << " s\n";
    }
    std::cout << "cache " << cache.dir() << ": " << cache.hits()
              << " hits, " << cache.misses() << " misses\n";
    return 0;
}

/** `store inspect`: print the header and per-section TOC of a file. */
int
cmdStoreInspect(const std::string& path)
{
    auto reader = store::StoreReader::open(path);
    std::cout << "file:           " << path << '\n'
              << "format version: " << reader.formatVersion() << '\n'
              << "file bytes:     " << reader.fileBytes() << '\n'
              << "sections:       " << reader.sections().size() << "\n\n";
    Table table("Sections");
    table.setHeader({"name", "offset", "bytes", "xxhash64"});
    for (const auto& entry : reader.sections()) {
        std::ostringstream digest;
        digest << std::hex << entry.digest;
        table.newRow()
            .cell(entry.name)
            .cell(std::to_string(entry.offset))
            .cell(std::to_string(entry.size))
            .cell(digest.str());
    }
    table.print(std::cout);
    return 0;
}

/**
 * `store verify`: recompute every section digest of the given files
 * (or of all .gbs files in the cache directory). Exit 1 if any fail.
 */
int
cmdStoreVerify(std::vector<std::string> paths)
{
    const auto& cache = store::globalCache();
    if (paths.empty()) {
        for (const auto& entry :
             std::filesystem::directory_iterator(cache.dir())) {
            if (entry.path().extension() == ".gbs") {
                paths.push_back(entry.path().string());
            }
        }
        std::sort(paths.begin(), paths.end());
    }
    if (paths.empty()) {
        std::cerr << "error: no .gbs files in " << cache.dir() << '\n';
        return 2;
    }
    int failures = 0;
    for (const auto& path : paths) {
        try {
            auto reader = store::StoreReader::open(path);
            reader.verifyAll();
            std::cout << path << ": OK ("
                      << reader.sections().size() << " sections, "
                      << reader.fileBytes() << " bytes)\n";
        } catch (const std::exception& e) {
            std::cout << path << ": FAILED — " << e.what() << '\n';
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

/** Artifact-cache counters at serve start, for delta reporting. */
struct CacheBaseline
{
    u64 builds = 0, hits = 0, misses = 0, waits = 0;

    static CacheBaseline
    snapshot()
    {
        const auto& cache = store::globalCache();
        return {cache.builds(), cache.hits(), cache.misses(),
                cache.flightWaits()};
    }
};

/**
 * Per-job table + `serve_job` metrics rows + summary + `serve_summary`
 * row, shared by the batch (--jobs) and network (--listen) serve
 * modes. Returns true when any job ended in a non-done state.
 */
bool
reportServeJobs(
    const std::vector<std::pair<u64, serve::JobHandle>>& jobs,
    const serve::Scheduler& scheduler, double wall_seconds,
    const CacheBaseline& base)
{
    const auto stats = scheduler.stats();
    const auto& cache = store::globalCache();
    Table table("Serve results (" + std::to_string(jobs.size()) +
                " jobs, " + std::to_string(scheduler.workers()) +
                " workers)");
    table.setHeader({"job", "kernel", "size", "prio", "t", "status",
                     "queue s", "prep s", "run s", "tasks/s"});
    bool any_bad = false;
    for (const auto& [id, handle] : jobs) {
        const auto status = handle.status();
        const auto m = handle.metrics();
        const auto& spec = handle.spec();
        const double tasks_per_sec =
            m.best_run_seconds > 0.0
                ? static_cast<double>(m.tasks) / m.best_run_seconds
                : 0.0;
        table.newRow()
            .cell(std::to_string(id))
            .cell(spec.kernel)
            .cell(datasetSizeName(spec.size))
            .cell(serve::priorityName(spec.priority))
            .cell(std::to_string(m.pool_threads ? m.pool_threads
                                                : spec.threads))
            .cell(serve::jobStatusName(status))
            .cellF(m.queue_seconds, 3)
            .cellF(m.prepare_seconds, 3)
            .cellF(m.run_seconds, 3)
            .cellF(tasks_per_sec, 1);
        cli::metricsSink().newRow("serve_job")
            .count("job", id)
            .str("kernel", spec.kernel)
            .str("size", datasetSizeName(spec.size))
            .str("priority", serve::priorityName(spec.priority))
            .count("threads", m.pool_threads ? m.pool_threads
                                             : spec.threads)
            .count("repeats", spec.repeats)
            .count("repeats_completed", m.repeats_completed)
            .count("dispatch_seq", m.dispatch_seq)
            .str("status", serve::jobStatusName(status))
            .num("queue_seconds", m.queue_seconds)
            .num("prepare_seconds", m.prepare_seconds)
            .num("run_seconds", m.run_seconds)
            .num("best_run_seconds", m.best_run_seconds)
            .count("tasks", m.tasks)
            .num("tasks_per_sec", tasks_per_sec);
        if (status != serve::JobStatus::kDone) {
            any_bad = true;
            std::cout << "job " << id << " (" << spec.describe()
                      << ") " << serve::jobStatusName(status) << ": "
                      << handle.error() << '\n';
        }
    }
    table.print(std::cout);

    const double jobs_per_sec =
        wall_seconds > 0.0
            ? static_cast<double>(stats.completed) / wall_seconds
            : 0.0;
    std::cout << "served " << stats.completed << "/" << jobs.size()
              << " jobs in " << formatF(wall_seconds, 3) << " s ("
              << formatF(jobs_per_sec, 2) << " jobs/s, peak "
              << stats.peak_workers_busy << "/" << stats.workers
              << " workers busy)\n";
    const double reserved =
        stats.prepare_worker_seconds + stats.run_worker_seconds;
    if (reserved > 0.0) {
        std::cout << "reserved worker time: prepare "
                  << formatF(stats.prepare_worker_seconds, 3)
                  << " s, run " << formatF(stats.run_worker_seconds, 3)
                  << " s (prepare "
                  << formatF(100.0 * stats.prepare_worker_seconds /
                                 reserved,
                             1)
                  << "%)\n";
    }
    if (cache.enabled()) {
        std::cout << "artifact cache: "
                  << cache.builds() - base.builds << " builds, "
                  << cache.hits() - base.hits << " hits, "
                  << cache.misses() - base.misses << " misses, "
                  << cache.flightWaits() - base.waits
                  << " single-flight waits\n";
    }
    const auto& lat = stats.latency;
    if (lat.jobs > 0) {
        std::cout << "latency (" << lat.jobs
                  << " jobs, p50/p95/p99 ms): queue_wait "
                  << formatF(lat.queue_wait.p50_ms, 2) << "/"
                  << formatF(lat.queue_wait.p95_ms, 2) << "/"
                  << formatF(lat.queue_wait.p99_ms, 2) << ", e2e "
                  << formatF(lat.end_to_end.p50_ms, 2) << "/"
                  << formatF(lat.end_to_end.p95_ms, 2) << "/"
                  << formatF(lat.end_to_end.p99_ms, 2) << '\n';
    }
    cli::metricsSink().newRow("serve_summary")
        .count("jobs", jobs.size())
        .count("completed", stats.completed)
        .count("failed", stats.failed)
        .count("cancelled", stats.cancelled)
        .count("rejected", stats.rejected)
        .num("wall_seconds", wall_seconds)
        .num("jobs_per_sec", jobs_per_sec)
        .count("workers", stats.workers)
        .count("peak_workers_busy", stats.peak_workers_busy)
        .count("cache_builds", cache.builds() - base.builds)
        .count("cache_hits", cache.hits() - base.hits)
        .count("cache_misses", cache.misses() - base.misses)
        .count("cache_flight_waits", cache.flightWaits() - base.waits)
        .num("queue_wait_p50_ms", lat.queue_wait.p50_ms)
        .num("queue_wait_p95_ms", lat.queue_wait.p95_ms)
        .num("queue_wait_p99_ms", lat.queue_wait.p99_ms)
        .num("e2e_p50_ms", lat.end_to_end.p50_ms)
        .num("e2e_p95_ms", lat.end_to_end.p95_ms)
        .num("e2e_p99_ms", lat.end_to_end.p99_ms)
        .num("prepare_worker_seconds", stats.prepare_worker_seconds)
        .num("run_worker_seconds", stats.run_worker_seconds);
    return any_bad;
}

/**
 * `serve --jobs`: run a whole job list through the gb::serve
 * Scheduler — submit everything up front, drain, then report per-job
 * and server-level results. Exit 1 if any job failed or was rejected.
 */
int
cmdServe(const cli::Options& opt)
{
    const auto specs = serve::parseJobFile(opt.jobs_path);

    const auto base = CacheBaseline::snapshot();
    serve::Scheduler::Config config;
    config.workers = opt.workers;
    config.queue_depth = opt.queue_depth;
    serve::Scheduler scheduler(std::move(config));

    WallTimer wall;
    std::vector<std::pair<u64, serve::JobHandle>> jobs;
    jobs.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        jobs.emplace_back(i + 1, scheduler.submit(specs[i]));
    }
    scheduler.drain();
    const bool any_bad =
        reportServeJobs(jobs, scheduler, wall.seconds(), base);
    return any_bad ? 1 : 0;
}

/** SIGTERM/SIGINT set this; the --listen loop polls it. */
volatile std::sig_atomic_t g_shutdown_signal = 0;

extern "C" void
onShutdownSignal(int)
{
    g_shutdown_signal = 1;
}

/**
 * `serve --listen=HOST:PORT`: the network front-end. Jobs arrive over
 * TCP (see docs/serve.md, "Network protocol"); the process serves
 * until a client issues DRAIN or it receives SIGTERM/SIGINT, then
 * drains gracefully and reports exactly like batch mode.
 */
int
cmdServeListen(const cli::Options& opt)
{
    const auto base = CacheBaseline::snapshot();
    serve::Scheduler::Config config;
    config.workers = opt.workers;
    config.queue_depth = opt.queue_depth;
    serve::Scheduler scheduler(std::move(config));

    net::ServerConfig server_config;
    server_config.host = opt.listen.host;
    server_config.port = opt.listen.port;
    net::Server server(&scheduler, server_config);
    // check.sh (and humans) scrape this line for the resolved port —
    // --listen=HOST:0 binds an ephemeral one.
    std::cout << "serving on " << opt.listen.host << ":"
              << server.port() << " (" << scheduler.workers()
              << " workers, queue depth " << opt.queue_depth << ")\n"
              << std::flush;

    std::signal(SIGTERM, onShutdownSignal);
    std::signal(SIGINT, onShutdownSignal);
    WallTimer wall;
    while (!server.waitShutdownRequestedFor(0.2)) {
        if (g_shutdown_signal) {
            std::cout << "signal received, draining\n";
            break;
        }
    }
    // Idempotent against the DRAIN-verb path, which already drained
    // on a session thread.
    scheduler.drain();
    server.stop();
    const double wall_seconds = wall.seconds();

    const bool any_bad = reportServeJobs(server.jobs(), scheduler,
                                         wall_seconds, base);
    return any_bad ? 1 : 0;
}

/**
 * `client`: drive a job file against a live `serve --listen` server.
 * Exit 0 only when every submitted job completed.
 */
int
cmdClient(const cli::Options& opt)
{
    return net::runClient({.host = opt.connect.host,
                           .port = opt.connect.port,
                           .jobs_path = opt.jobs_path,
                           .wait_seconds = opt.wait_timeout,
                           .drain = opt.drain},
                          std::cout);
}

} // namespace

int
main(int argc, char** argv)
{
    const cli::Options opt =
        cli::parseOrExit(cli::FrontEnd::kCli, argc, argv);
    const std::string& command = opt.command;
    cli::openMetrics(opt,
                     command + (opt.operands.empty()
                                    ? std::string()
                                    : ":" + opt.operands.front()),
                     "genomicsbench CLI");
    try {
        if (command == "list") return cmdList();
        if (command == "info") return cmdInfo(opt.operands.front());
        if (command == "run") {
            return runTraced(opt.trace_path, [&] { return cmdRun(opt); });
        }
        if (command == "characterize") {
            return cmdCharacterize(opt.operands.front(), opt.size);
        }
        if (command == "store build") {
            return cmdStoreBuild(opt.kernelList(), opt.size);
        }
        if (command == "store inspect") {
            return cmdStoreInspect(opt.operands.front());
        }
        if (command == "store verify") return cmdStoreVerify(opt.operands);
        if (command == "serve") {
            return runTraced(opt.trace_path, [&] {
                return opt.listen.host.empty() ? cmdServe(opt)
                                               : cmdServeListen(opt);
            });
        }
        return cmdClient(opt);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
