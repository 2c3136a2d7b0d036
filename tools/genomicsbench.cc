/**
 * @file
 * genomicsbench — command-line driver for the suite.
 *
 *   genomicsbench list
 *   genomicsbench info <kernel>
 *   genomicsbench run <kernel> [--size=S] [--threads=N] [--repeat=R]
 *                    [--cache-dir=DIR] [--json=FILE]
 *   genomicsbench characterize <kernel> [--size=S] [--cache-dir=DIR]
 *                    [--json=FILE]
 *   genomicsbench store build [--cache-dir=DIR] [--size=S]
 *                    [--kernels=a,b,c]
 *   genomicsbench store inspect <file.gbs>
 *   genomicsbench store verify <file.gbs>... | --cache-dir=DIR
 *   genomicsbench serve --jobs=FILE | --listen=HOST:PORT
 *                    [--workers=N] [--queue-depth=K]
 *                    [--cache-dir=DIR] [--json=FILE]
 *   genomicsbench client --connect=HOST:PORT --jobs=FILE
 *                    [--wait-timeout=S] [--drain]
 *
 * Each subcommand accepts only the flags listed on its line (plus
 * --trace for run and serve); any other flag exits 2.
 *
 * `run` times the kernel (wall clock, tasks/s) and prints the SIMD
 * dispatch level it ran at; every kernel has one run path, and
 * GB_SIMD_LEVEL=scalar gives its scalar baseline (an unknown
 * GB_SIMD_LEVEL exits 2). `characterize` prints
 * the operation mix, cache behaviour and top-down attribution for one
 * kernel — the per-kernel view of what the bench_* binaries sweep.
 * The `store` subcommands manage the gb::store artifact cache that
 * --cache-dir consults (see docs/store-format.md). `serve` runs a
 * whole job list through the gb::serve scheduler (docs/serve.md):
 * batch mode (--jobs) drains a file, network mode (--listen) accepts
 * jobs over TCP until DRAIN or SIGTERM. `client` drives a job file
 * against a network server. `run` and `serve` accept --trace=FILE to
 * record a gb::trace timeline (Perfetto-loadable Chrome trace JSON;
 * scripts/trace_inspect.py summarizes one, see docs/tracing.md).
 */
#include <algorithm>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "arch/cache_sim.h"
#include "arch/topdown.h"
#include "core/benchmark.h"
#include "core/measure.h"
#include "metrics/metrics_sink.h"
#include "metrics/pooled_counters.h"
#include "net/client.h"
#include "net/net.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/job.h"
#include "serve/scheduler.h"
#include "simd/simd.h"
#include "store/cache.h"
#include "store/container.h"
#include "trace/trace.h"
#include "util/parse.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace gb;

/** Armed by --json=FILE; rows are dropped until then. */
metrics::MetricsSink g_sink;

/** Print a table and mirror its rows into the metrics sink. */
void
report(const Table& table)
{
    table.print(std::cout);
    metrics::emitTable(g_sink, table);
}

/**
 * Run `fn` with gb::trace armed when --trace=FILE was given: start
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
usage()
{
    std::cerr
        << "usage:\n"
           "  genomicsbench list\n"
           "  genomicsbench info <kernel>\n"
           "  genomicsbench run <kernel> [--size=tiny|small|large]"
           " [--threads=N] [--repeat=R]"
           " [--cache-dir=DIR] [--json=FILE]\n"
           "  genomicsbench characterize <kernel>"
           " [--size=tiny|small|large] [--cache-dir=DIR]"
           " [--json=FILE]\n"
           "  genomicsbench store build [--cache-dir=DIR]"
           " [--size=S] [--kernels=a,b,c]\n"
           "  genomicsbench store inspect <file.gbs>\n"
           "  genomicsbench store verify <file.gbs>... |"
           " --cache-dir=DIR\n"
           "  genomicsbench serve --jobs=FILE | --listen=HOST:PORT"
           " [--workers=N] [--queue-depth=K]"
           " [--cache-dir=DIR] [--json=FILE] [--trace=FILE]\n"
           "  genomicsbench client --connect=HOST:PORT --jobs=FILE"
           " [--wait-timeout=S] [--drain]\n"
           "(run also accepts --trace=FILE; see docs/tracing.md)\n"
           "the scalar/SIMD switch of every kernel is"
           " GB_SIMD_LEVEL=scalar|sse4|avx2\n";
    return 2;
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
cmdRun(const std::string& name, DatasetSize size, unsigned threads,
       unsigned repeat)
{
    auto kernel = createKernel(name);
    std::cout << name << ": simd level "
              << simd::simdLevelName(simd::activeSimdLevel()) << '\n';
    Measurement m;
    measurePrepare(*kernel, size, m);
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

    ThreadPool pool(threads);
    // One counter group per pool thread, summed per repeat, so the
    // reported counters cover the whole run at any thread count.
    metrics::PooledCounters counters(pool);
    measureRepeats(*kernel, pool, repeat, m, &counters);
    for (size_t r = 0; r < m.repeat_seconds.size(); ++r) {
        const double seconds = m.repeat_seconds[r];
        const double rate = static_cast<double>(m.tasks) / seconds;
        std::cout << "run " << r + 1 << ": " << formatF(seconds, 3)
                  << " s, " << m.tasks << " tasks ("
                  << formatF(rate, 1) << " tasks/s)\n";
        g_sink.newRow("run")
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
    g_sink.newRow("run_best")
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
cmdStoreBuild(const std::vector<std::string>& kernels, DatasetSize size)
{
    auto& cache = store::globalCache();
    if (!cache.enabled()) {
        std::cerr << "error: store build requires --cache-dir=DIR\n";
        return 2;
    }
    const std::vector<std::string> names =
        kernels.empty() ? kernelNames() : kernels;
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
 * (or of all .gbs files under --cache-dir). Exit 1 if any fail.
 */
int
cmdStoreVerify(std::vector<std::string> paths)
{
    const auto& cache = store::globalCache();
    if (paths.empty() && cache.enabled()) {
        for (const auto& entry :
             std::filesystem::directory_iterator(cache.dir())) {
            if (entry.path().extension() == ".gbs") {
                paths.push_back(entry.path().string());
            }
        }
        std::sort(paths.begin(), paths.end());
    }
    if (paths.empty()) {
        std::cerr << "error: store verify needs <file.gbs>... or "
                     "--cache-dir=DIR\n";
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
        g_sink.newRow("serve_job")
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
    g_sink.newRow("serve_summary")
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
cmdServe(const std::string& jobs_path, unsigned workers,
         size_t queue_depth)
{
    const auto specs = serve::parseJobFile(jobs_path);

    const auto base = CacheBaseline::snapshot();
    serve::Scheduler::Config config;
    config.workers = workers;
    config.queue_depth = queue_depth;
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
cmdServeListen(const std::string& listen_spec, unsigned workers,
               size_t queue_depth)
{
    const net::HostPort hostport = net::parseHostPort(listen_spec);

    const auto base = CacheBaseline::snapshot();
    serve::Scheduler::Config config;
    config.workers = workers;
    config.queue_depth = queue_depth;
    serve::Scheduler scheduler(std::move(config));

    net::ServerConfig server_config;
    server_config.host = hostport.host;
    server_config.port = hostport.port;
    net::Server server(&scheduler, server_config);
    // check.sh (and humans) scrape this line for the resolved port —
    // --listen=HOST:0 binds an ephemeral one.
    std::cout << "serving on " << hostport.host << ":"
              << server.port() << " (" << scheduler.workers()
              << " workers, queue depth " << queue_depth << ")\n"
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
cmdClient(const std::string& connect_spec,
          const std::string& jobs_path, bool drain,
          double wait_timeout)
{
    if (connect_spec.empty() || jobs_path.empty()) {
        std::cerr << "error: client requires --connect=HOST:PORT "
                     "and --jobs=FILE\n";
        return 2;
    }
    const net::HostPort hostport = net::parseHostPort(connect_spec);
    net::ClientOptions options;
    options.host = hostport.host;
    options.port = hostport.port;
    options.jobs_path = jobs_path;
    options.drain = drain;
    options.wait_seconds = wait_timeout;
    return net::runClient(options, std::cout);
}

/** Flags the parser in main() accepts (name only, sans value). */
const std::vector<std::string> kFlags = {
    "--size", "--threads", "--repeat", "--cache-dir", "--json",
    "--trace", "--jobs", "--listen", "--connect", "--drain",
    "--wait-timeout", "--workers", "--queue-depth", "--kernels"};

/**
 * The flags each subcommand's usage line lists; any other flag is
 * rejected rather than silently ignored. Null for an unknown command.
 */
const std::vector<std::string>*
commandFlags(const std::string& command)
{
    static const std::map<std::string, std::vector<std::string>> kByCommand =
        {{"info", {}},
         {"run",
          {"--size", "--threads", "--repeat", "--cache-dir", "--json",
           "--trace"}},
         {"characterize", {"--size", "--cache-dir", "--json"}},
         {"store build", {"--cache-dir", "--size", "--kernels"}},
         {"store inspect", {}},
         {"store verify", {"--cache-dir"}},
         {"serve",
          {"--jobs", "--listen", "--workers", "--queue-depth",
           "--cache-dir", "--json", "--trace"}},
         {"client", {"--connect", "--jobs", "--wait-timeout", "--drain"}}};
    const auto it = kByCommand.find(command);
    return it == kByCommand.end() ? nullptr : &it->second;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) return usage();
    const std::string command = argv[1];
    try {
        // A mistyped GB_SIMD_LEVEL is a usage error, caught before
        // anything runs at the wrong level.
        simd::activeSimdLevel();
    } catch (const InputError& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 2;
    }
    try {
        if (command == "list") return cmdList();
        if (argc < 3) return usage();

        // Shared flag parsing for the remaining commands; positional
        // arguments (kernel name, store file paths) are collected.
        DatasetSize size = DatasetSize::kSmall;
        unsigned threads = 0;
        unsigned repeat = 3;
        std::string json_path;
        std::string trace_path;
        std::string jobs_path;
        std::string listen_spec;
        std::string connect_spec;
        bool drain = false;
        double wait_timeout = -1.0;
        unsigned workers = 0;
        size_t queue_depth = 64;
        std::vector<std::string> kernels;
        std::vector<std::string> positional;
        // `store` subcommands are named by their first positional.
        std::string subcommand = command;
        if (command == "store") {
            for (int i = 2; i < argc; ++i) {
                if (std::strncmp(argv[i], "--", 2) != 0) {
                    subcommand += std::string(" ") + argv[i];
                    break;
                }
            }
        }
        const auto* accepted = commandFlags(subcommand);
        if (!accepted) return usage();
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            const std::string name = arg.substr(0, arg.find('='));
            if (std::find(kFlags.begin(), kFlags.end(), name) !=
                    kFlags.end() &&
                std::find(accepted->begin(), accepted->end(), name) ==
                    accepted->end()) {
                std::cerr << "error: " << subcommand
                          << " does not accept " << name << '\n';
                return usage();
            }
            if (arg.rfind("--size=", 0) == 0) {
                size = parseDatasetSize(arg.substr(7));
            } else if (arg.rfind("--threads=", 0) == 0) {
                threads = parseUnsigned("--threads", arg.substr(10), 0,
                                        kMaxThreads);
            } else if (arg.rfind("--repeat=", 0) == 0) {
                repeat = parseUnsigned("--repeat", arg.substr(9), 1);
            } else if (arg.rfind("--cache-dir=", 0) == 0) {
                const std::string dir = arg.substr(12);
                requireInput(!dir.empty(),
                             "--cache-dir expects a directory path");
                store::setCacheDir(dir);
            } else if (arg.rfind("--json=", 0) == 0) {
                json_path = arg.substr(7);
                requireInput(!json_path.empty(),
                             "--json expects a file path");
            } else if (arg.rfind("--trace=", 0) == 0) {
                trace_path = arg.substr(8);
                requireInput(!trace_path.empty(),
                             "--trace needs a file path");
            } else if (arg.rfind("--jobs=", 0) == 0) {
                jobs_path = arg.substr(7);
            } else if (arg.rfind("--listen=", 0) == 0) {
                listen_spec = arg.substr(9);
            } else if (arg.rfind("--connect=", 0) == 0) {
                connect_spec = arg.substr(10);
            } else if (arg == "--drain") {
                drain = true;
            } else if (arg.rfind("--wait-timeout=", 0) == 0) {
                wait_timeout = parseSeconds(
                    "--wait-timeout", arg.substr(15), net::kMaxWaitSeconds);
            } else if (arg.rfind("--workers=", 0) == 0) {
                workers = parseUnsigned("--workers", arg.substr(10), 0,
                                        kMaxThreads);
            } else if (arg.rfind("--queue-depth=", 0) == 0) {
                queue_depth =
                    parseUnsigned("--queue-depth", arg.substr(14));
            } else if (arg.rfind("--kernels=", 0) == 0) {
                std::istringstream list(arg.substr(10));
                std::string name;
                while (std::getline(list, name, ',')) {
                    if (!name.empty()) kernels.push_back(name);
                }
            } else if (arg.rfind("--", 0) == 0) {
                std::cerr << "error: " << unknownOption(arg, kFlags)
                          << '\n';
                return usage();
            } else {
                positional.push_back(arg);
            }
        }

        if (!json_path.empty()) {
            metrics::RunMeta meta;
            meta.experiment = command +
                              (positional.empty()
                                   ? std::string()
                                   : ":" + positional.front());
            meta.paper_ref = "genomicsbench CLI";
            meta.size = datasetSizeName(size);
            meta.threads = threads;
            meta.simd_level =
                simd::simdLevelName(simd::activeSimdLevel());
            g_sink.open(json_path, std::move(meta));
        }

        if (command == "store") {
            if (positional.empty()) return usage();
            const std::string sub = positional.front();
            positional.erase(positional.begin());
            if (sub == "build") return cmdStoreBuild(kernels, size);
            if (sub == "inspect") {
                if (positional.size() != 1) return usage();
                return cmdStoreInspect(positional.front());
            }
            if (sub == "verify") {
                return cmdStoreVerify(std::move(positional));
            }
            return usage();
        }

        if (command == "serve") {
            if (!positional.empty()) return usage();
            if (!listen_spec.empty() && !jobs_path.empty()) {
                std::cerr << "error: serve takes --jobs=FILE or "
                             "--listen=HOST:PORT, not both\n";
                return 2;
            }
            if (!listen_spec.empty()) {
                return runTraced(trace_path, [&] {
                    return cmdServeListen(listen_spec, workers,
                                          queue_depth);
                });
            }
            if (jobs_path.empty()) {
                std::cerr << "error: serve requires --jobs=FILE or "
                             "--listen=HOST:PORT\n";
                return 2;
            }
            return runTraced(trace_path, [&] {
                return cmdServe(jobs_path, workers, queue_depth);
            });
        }

        if (command == "client") {
            if (!positional.empty()) return usage();
            return cmdClient(connect_spec, jobs_path, drain,
                             wait_timeout);
        }

        if (positional.size() != 1) return usage();
        const std::string kernel = positional.front();
        if (command == "info") return cmdInfo(kernel);
        if (command == "run") {
            return runTraced(trace_path, [&] {
                return cmdRun(kernel, size, threads, repeat);
            });
        }
        if (command == "characterize") {
            return cmdCharacterize(kernel, size);
        }
        return usage();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
