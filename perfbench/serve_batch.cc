#include <array>
#include <filesystem>

#include "phases.h"
#include "serve/scheduler.h"
#include "store/cache.h"
#include "util/rng.h"

namespace perfbench {

namespace {

template <typename T, size_t N>
void
shuffle(std::array<T, N>& items, gb::Rng& rng)
{
    for (size_t i = N; i > 1; --i) std::swap(items[i - 1], items[rng.below(i)]);
}

} // namespace

ServeBatch::ServeBatch(unsigned workers, unsigned nproc, u64 seed,
                       std::string cache_root)
    : workers_(workers), nproc_(nproc), cache_root_(std::move(cache_root)),
      rng_(seed)
{
}

std::vector<gb::serve::JobSpec>
ServeBatch::drawJobs()
{
    using gb::serve::Priority;
    // Every kernel gets the same three jobs; the generator pairs widths
    // with priorities and repeat counts, and orders the submissions.
    // Each batch draws anew, so a run's median covers many schedules
    // rather than the one a seed happens to give.
    std::vector<gb::serve::JobSpec> jobs;
    const std::array<unsigned, 3> widths = {1, 2, nproc_};
    for (const auto& name : gb::kernelNames()) {
        std::array<Priority, 3> priorities = {
            Priority::kHigh, Priority::kNormal, Priority::kBatch};
        std::array<unsigned, 3> repeats = {1, 1, 2};
        shuffle(priorities, rng_);
        shuffle(repeats, rng_);
        for (size_t j = 0; j < widths.size(); ++j) {
            gb::serve::JobSpec spec;
            spec.kernel = name;
            spec.size = gb::DatasetSize::kTiny;
            spec.engine = gb::Engine::kSimd;
            spec.threads = widths[j];
            spec.repeats = repeats[j];
            spec.priority = priorities[j];
            jobs.push_back(spec);
        }
    }
    for (size_t i = jobs.size(); i > 1; --i) {
        std::swap(jobs[i - 1], jobs[rng_.below(i)]);
    }
    return jobs;
}

ServeBatch::~ServeBatch()
{
    gb::store::setCacheDir("");
    std::error_code ec;
    std::filesystem::remove_all(cache_root_, ec);
}

void
ServeBatch::setup(unsigned rep)
{
    const std::string dir = cache_root_ + "/setup-" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    gb::store::setCacheDir(dir);
    spans::Scope span("serve.warm_cache");
    for (const auto& name : gb::kernelNames()) {
        auto kernel = gb::createKernel(name);
        kernel->setEngine(gb::Engine::kSimd);
        kernel->prepare(gb::DatasetSize::kTiny);
    }
}

void
ServeBatch::warmUp(Checks& checks)
{
    batch(checks, false);
    batches_.pop_back();
}

void
ServeBatch::batch(Checks& checks, bool traced)
{
    using namespace gb::serve;
    const auto& cache = gb::store::globalCache();
    const u64 hits0 = cache.hits();
    const u64 builds0 = cache.builds();
    const u64 waits0 = cache.flightWaits();

    const std::vector<JobSpec> jobs = drawJobs();
    Scheduler::Config config;
    config.workers = workers_;
    config.queue_depth = jobs.size(); // no job is rejected
    Scheduler scheduler(config);
    std::vector<JobHandle> handles;
    handles.reserve(jobs.size());

    Batch b;
    b.traced = traced;
    const u64 t0 = nowNs();
    {
        spans::Scope span("serve.submit");
        for (const auto& spec : jobs) handles.push_back(scheduler.submit(spec));
    }
    {
        spans::Scope span("serve.drain");
        scheduler.drain();
    }
    b.wall_s = secondsSince(t0);

    const Scheduler::Stats stats = scheduler.stats();
    checks.expect(stats.rejected == 0, "serve batch rejected jobs");
    for (const JobHandle& h : handles) {
        const JobMetrics m = h.metrics();
        const bool ok =
            h.status() == JobStatus::kDone &&
            m.tasks == expectedTasks(h.spec().kernel, gb::DatasetSize::kTiny);
        checks.expect(ok, "serve job " + h.spec().describe() + ": " +
                              jobStatusName(h.status()) + " " + h.error());
        b.done += ok;
        b.queue_ms.push_back(1e3 * m.queue_seconds);
        b.prepare_ms.push_back(1e3 * m.prepare_seconds);
        b.run_ms.push_back(1e3 * m.run_seconds);
    }
    b.cache_hits = cache.hits() - hits0;
    b.cache_builds = cache.builds() - builds0;
    b.flight_waits = cache.flightWaits() - waits0;
    b.peak_busy = stats.peak_workers_busy;
    if (traced) spans::keep(spans::take());
    batches_.push_back(std::move(b));
}

void
ServeBatch::report(Report& e2e, Report& layers) const
{
    std::vector<double> jobs_per_s;
    for (const Batch& b : batches_) {
        if (!b.traced) {
            jobs_per_s.push_back(static_cast<double>(b.done) / b.wall_s);
        }
    }
    e2e.set("jobs_per_s", median(jobs_per_s), "jobs/s");

    const bool any_traced =
        std::any_of(batches_.begin(), batches_.end(),
                    [](const Batch& b) { return b.traced; });
    std::vector<double> queue_ms, prepare_ms, run_ms, hits, builds, waits;
    double peak_busy = 0.0;
    for (const Batch& b : batches_) {
        if (b.traced != any_traced) continue;
        queue_ms.insert(queue_ms.end(), b.queue_ms.begin(), b.queue_ms.end());
        prepare_ms.insert(prepare_ms.end(), b.prepare_ms.begin(),
                          b.prepare_ms.end());
        run_ms.insert(run_ms.end(), b.run_ms.begin(), b.run_ms.end());
        hits.push_back(static_cast<double>(b.cache_hits));
        builds.push_back(static_cast<double>(b.cache_builds));
        waits.push_back(static_cast<double>(b.flight_waits));
        peak_busy = std::max(peak_busy, static_cast<double>(b.peak_busy));
    }
    layers.set("serve.queue_wait_p50_ms", quantile(queue_ms, 0.5), "ms");
    layers.set("serve.queue_wait_p95_ms", quantile(queue_ms, 0.95), "ms");
    layers.set("serve.prepare_p50_ms", quantile(prepare_ms, 0.5), "ms");
    layers.set("serve.run_p50_ms", quantile(run_ms, 0.5), "ms");
    layers.set("serve.cache_hits", median(hits), "count");
    layers.set("serve.cache_builds", median(builds), "count");
    layers.set("serve.cache_flight_waits", median(waits), "count");
    layers.set("serve.peak_workers_busy", peak_busy, "count");
}

} // namespace perfbench
