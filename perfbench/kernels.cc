#include <algorithm>
#include <cmath>
#include <map>

#include "phases.h"
#include "store/cache.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/** Shortest timed sample; short kernels repeat run() to reach it. */
constexpr double kMinSampleS = 0.1;

} // namespace

u64
expectedTasks(const std::string& kernel, gb::DatasetSize size)
{
    // The registry's fixed datasets: {tiny, small}.
    static const std::map<std::string, std::pair<u64, u64>> kTasks = {
        {"fmi", {200, 20000}},  {"bsw", {200, 20000}},
        {"dbg", {10, 500}},     {"phmm", {5, 100}},
        {"nn-variant", {20, 500}}, {"chain", {20, 1000}},
        {"spoa", {5, 200}},     {"kmer-cnt", {2, 40}},
        {"abea", {5, 100}},     {"grm", {1, 10}},
        {"nn-base", {2, 20}},   {"pileup", {2, 10}},
    };
    const auto it = kTasks.find(kernel);
    if (it == kTasks.end()) return 0;
    return size == gb::DatasetSize::kTiny ? it->second.first
                                          : it->second.second;
}

KernelSuite::KernelSuite(gb::ThreadPool& pool, gb::DatasetSize size,
                         u64 seed)
    : pool_(pool), size_(size), rng_(seed)
{
    for (const auto& name : gb::kernelNames()) {
        Entry e;
        e.name = name;
        e.prepare_span = "prepare." + name;
        e.run_span = "run." + name;
        entries_.push_back(std::move(e));
    }
    order_.resize(entries_.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
}

void
KernelSuite::setup()
{
    gb::store::setCacheDir("");
    for (Entry& e : entries_) {
        e.kernel.reset(); // free the previous set-up's dataset first
        const bool traced = spans::enabled();
        const u64 t0 = nowNs();
        {
            spans::Scope span(e.prepare_span.c_str());
            e.kernel = gb::createKernel(e.name);
            e.kernel->setEngine(gb::Engine::kSimd);
            e.kernel->prepare(size_);
        }
        e.prepare_s[traced].push_back(secondsSince(t0));
    }
}

void
KernelSuite::warmUp(Checks& checks)
{
    for (Entry& e : entries_) {
        const u64 want = expectedTasks(e.name, size_);
        const u64 t0 = nowNs();
        e.tasks = e.kernel->run(pool_);
        e.first_run_s = secondsSince(t0);
        checks.expect(e.tasks == want, e.name);
        e.reps = static_cast<unsigned>(std::max(
            1.0, std::ceil(kMinSampleS / std::max(e.first_run_s, 1e-6))));
    }
}

void
KernelSuite::pass(Checks& checks, PeakRss& rss, bool traced)
{
    // The kernels' datasets are fixed by the registry, so the seed only
    // decides the order they run in. A new order each pass varies the
    // kernel that ran before (and left the caches) within a run.
    for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.below(i)]);
    }
    for (size_t idx : order_) {
        Entry& e = entries_[idx];
        pool_.resetTelemetry();
        rss.reset();
        const Usage u0 = Usage::now();
        for (unsigned r = 0; r < e.reps; ++r) {
            spans::Scope span(e.run_span.c_str());
            const u64 r0 = nowNs();
            const u64 tasks = e.kernel->run(pool_);
            if (!traced) e.run_s.push_back(secondsSince(r0));
            checks.expect(tasks == e.tasks, e.name);
        }
        const Usage u1 = Usage::now();
        e.rss_peak_mb = std::max(e.rss_peak_mb, rss.sinceResetMb());

        const double reps = static_cast<double>(e.reps);
        Sample s;
        s.traced = traced;
        s.cpu_s = (u1.cpu_s - u0.cpu_s) / reps;
        for (const auto& t : pool_.telemetry()) {
            s.pool_busy_s += t.busy_seconds / reps;
            s.pool_wait_s += t.wait_seconds / reps;
        }
        s.minflt = static_cast<double>(u1.minflt - u0.minflt) / reps;
        s.csw = static_cast<double>(u1.nvcsw + u1.nivcsw - u0.nvcsw -
                                    u0.nivcsw) /
                reps;
        e.samples.push_back(s);
    }
    if (!traced) return;
    auto records = spans::take();
    for (const auto& rec : records) {
        for (Entry& e : entries_) {
            // Records keep the pointer they were given.
            if (rec.name == e.run_span.c_str()) {
                e.traced_run_s.push_back(
                    1e-9 * static_cast<double>(rec.end_ns - rec.begin_ns));
            }
        }
    }
    spans::keep(std::move(records));
}

void
KernelSuite::report(Report& e2e, Report& layers, Report& extras) const
{
    double log_rate_sum = 0.0;
    for (const Entry& e : entries_) {
        // Per-layer figures describe the traced samples when there are
        // any, the end-to-end rate always the untraced run() calls.
        std::vector<double> cpu_s, busy_s, wait_s, minflt, csw;
        const bool traced_layers = !e.traced_run_s.empty();
        for (const Sample& s : e.samples) {
            if (s.traced != traced_layers) continue;
            cpu_s.push_back(s.cpu_s);
            busy_s.push_back(s.pool_busy_s);
            wait_s.push_back(s.pool_wait_s);
            minflt.push_back(s.minflt);
            csw.push_back(s.csw);
        }
        const double tasks = static_cast<double>(e.tasks);
        const double rate = tasks / median(e.run_s);
        log_rate_sum += std::log(rate);
        extras.set(e.name + ".tasks_per_s", rate, "tasks/s");

        layers.set("prepare_s." + e.name,
                   median(e.prepare_s[traced_layers]), "s");
        layers.set("run_s." + e.name,
                   median(traced_layers ? e.traced_run_s : e.run_s), "s");
        layers.set("cpu_s." + e.name, median(cpu_s), "s");
        layers.set("pool_busy_s." + e.name, median(busy_s), "s");
        layers.set("pool_wait_s." + e.name, median(wait_s), "s");
        layers.set("rss_peak_mb." + e.name, e.rss_peak_mb, "MiB");
        layers.set("minflt." + e.name, median(minflt), "count");
        layers.set("first_run_s." + e.name, e.first_run_s, "s");
        layers.set("tasks." + e.name, tasks, "count");
        extras.set("csw." + e.name, median(csw), "count");
    }
    // One figure for the suite, as in SPEC scores: the geometric mean
    // weighs a 2x change in any kernel alike, whatever its run length,
    // and averages out the kernels' separate run-to-run noise.
    e2e.set("kernels.tasks_per_s",
            std::exp(log_rate_sum / static_cast<double>(entries_.size())),
            "tasks/s");
}

} // namespace perfbench
