/**
 * @file
 * Tests for gb::serve: job parsing/validation, admission control,
 * FIFO + big-job-aging dispatch order, cancellation semantics, kernel
 * error isolation, single-flight prepare through the artifact cache,
 * and drain/shutdown behaviour.
 *
 * The scheduler is driven with fake kernels (Config::kernel_factory)
 * whose run() can be gated on a condition variable, so every ordering
 * assertion below is deterministic: a test only releases a gate once
 * the queue is in the exact state it wants to observe.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/job.h"
#include "serve/scheduler.h"
#include "store/cache.h"
#include "store/container.h"

namespace gb {
namespace {

using serve::JobHandle;
using serve::JobSpec;
using serve::JobStatus;
using serve::Scheduler;

// ---------------------------------------------------------------------
// Job parsing

TEST(ServeJob, ParseLineFull)
{
    const JobSpec spec = serve::parseJobLine(
        "fmi size=large threads=4 repeats=7");
    EXPECT_EQ(spec.kernel, "fmi");
    EXPECT_EQ(spec.size, DatasetSize::kLarge);
    EXPECT_EQ(spec.threads, 4u);
    EXPECT_EQ(spec.repeats, 7u);
}

TEST(ServeJob, ParseLineDefaults)
{
    const JobSpec spec = serve::parseJobLine("kmer-cnt");
    EXPECT_EQ(spec.kernel, "kmer-cnt");
    EXPECT_EQ(spec.size, DatasetSize::kTiny);
    EXPECT_EQ(spec.threads, 1u);
    EXPECT_EQ(spec.repeats, 1u);
}

TEST(ServeJob, DescribeIncludesSchedule)
{
    JobSpec spec = serve::parseJobLine(
        "fmi size=tiny threads=2 repeats=3");
    EXPECT_EQ(spec.describe(),
              "fmi size=tiny priority=normal t=2 x3");
    spec.priority = serve::Priority::kBatch;
    EXPECT_EQ(spec.describe(),
              "fmi size=tiny priority=batch t=2 x3");
}

TEST(ServeJob, ParseLinePriority)
{
    EXPECT_EQ(serve::parseJobLine("fmi").priority,
              serve::Priority::kNormal);
    EXPECT_EQ(serve::parseJobLine("fmi priority=high").priority,
              serve::Priority::kHigh);
    EXPECT_EQ(serve::parseJobLine("fmi priority=normal").priority,
              serve::Priority::kNormal);
    EXPECT_EQ(serve::parseJobLine("fmi priority=batch").priority,
              serve::Priority::kBatch);
    EXPECT_THROW(serve::parseJobLine("fmi priority=urgent"),
                 InputError);
    EXPECT_THROW(
        serve::parseJobLine("fmi priority=high priority=high"),
        InputError);
}

TEST(ServeJob, PriorityNames)
{
    EXPECT_STREQ(serve::priorityName(serve::Priority::kHigh), "high");
    EXPECT_STREQ(serve::priorityName(serve::Priority::kNormal),
                 "normal");
    EXPECT_STREQ(serve::priorityName(serve::Priority::kBatch),
                 "batch");
    EXPECT_THROW(serve::parsePriority(""), InputError);
}

TEST(ServeJob, ParseLineErrors)
{
    EXPECT_THROW(serve::parseJobLine(""), InputError);
    EXPECT_THROW(serve::parseJobLine("size=tiny"), InputError);
    EXPECT_THROW(serve::parseJobLine("fmi bsw"), InputError);
    EXPECT_THROW(serve::parseJobLine("fmi size=tiny size=small"),
                 InputError);
    EXPECT_THROW(serve::parseJobLine("fmi colour=blue"), InputError);
    EXPECT_THROW(serve::parseJobLine("fmi threads=zero"), InputError);
    EXPECT_THROW(serve::parseJobLine("fmi threads=0"), InputError);
    EXPECT_THROW(serve::parseJobLine("fmi threads="), InputError);
    EXPECT_THROW(serve::parseJobLine("fmi threads=4x"), InputError);
    EXPECT_THROW(serve::parseJobLine("fmi threads=-1"), InputError);
    EXPECT_THROW(serve::parseJobLine("fmi threads=99999"), InputError);
    EXPECT_THROW(serve::parseJobLine("fmi repeats=4294967296"),
                 InputError);
    EXPECT_THROW(serve::parseJobLine("fmi size=medium"), InputError);
}

TEST(ServeJob, EngineIsAnUnknownKey)
{
    // Every kernel has one run path, so a job line cannot pick an
    // engine; the error names the keys a job line does accept.
    try {
        serve::parseJobLine("fmi engine=simd");
        FAIL() << "expected InputError";
    } catch (const InputError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown key: engine"), std::string::npos)
            << what;
        EXPECT_NE(what.find("expected size, threads, repeats or "
                            "priority"),
                  std::string::npos)
            << what;
    }
}

TEST(ServeJob, ParseFile)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "gb_serve_jobs_test.txt";
    {
        std::ofstream out(path);
        out << "# genomics job list\n"
               "\n"
               "fmi size=tiny threads=2   # trailing comment\n"
               "bsw size=small\n"
               " \t\r\n"
               "# CRLF lines\r\n"
               "pileup size=tiny\r\n";
    }
    const auto specs = serve::parseJobFile(path.string());
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].kernel, "fmi");
    EXPECT_EQ(specs[0].threads, 2u);
    EXPECT_EQ(specs[1].kernel, "bsw");
    EXPECT_EQ(specs[1].size, DatasetSize::kSmall);
    EXPECT_EQ(specs[2].kernel, "pileup");
    EXPECT_EQ(specs[2].size, DatasetSize::kTiny);
    // The raw lines the network client sends: trimmed, numbered.
    const auto lines = serve::readJobLines(path.string());
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0].lineno, 3u);
    EXPECT_EQ(lines[0].text, "fmi size=tiny threads=2");
    EXPECT_EQ(lines[2].lineno, 7u);
    EXPECT_EQ(lines[2].text, "pileup size=tiny");
    std::filesystem::remove(path);
}

TEST(ServeJob, ParseFileReportsLineNumber)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "gb_serve_jobs_bad.txt";
    {
        std::ofstream out(path);
        out << "fmi\n\nfmi bogus=1\n";
    }
    try {
        serve::parseJobFile(path.string());
        FAIL() << "expected InputError";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find(":3:"), std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
}

TEST(ServeJob, ParseFileErrors)
{
    EXPECT_THROW(serve::parseJobFile("/nonexistent/jobs.txt"),
                 InputError);
    const auto path = std::filesystem::temp_directory_path() /
                      "gb_serve_jobs_empty.txt";
    { std::ofstream out(path); out << "# only comments\n"; }
    EXPECT_THROW(serve::parseJobFile(path.string()), InputError);
    std::filesystem::remove(path);
}

TEST(ServeJob, ValidateSpec)
{
    const std::vector<std::string> known = {"alpha", "beta"};
    JobSpec spec;
    spec.kernel = "alpha";
    EXPECT_NO_THROW(serve::validateSpec(spec, known));
    spec.kernel = "gamma";
    EXPECT_THROW(serve::validateSpec(spec, known), InputError);
    spec.kernel = "alpha";
    spec.threads = 0;
    EXPECT_THROW(serve::validateSpec(spec, known), InputError);
    spec.threads = 1;
    spec.repeats = 0;
    EXPECT_THROW(serve::validateSpec(spec, known), InputError);
}

TEST(ServeJob, UnknownKernelSuggestsNearest)
{
    const std::vector<std::string> known = {"fmi", "bsw"};
    try {
        serve::validateSpec(serve::parseJobLine("fmii size=tiny"), known);
        FAIL() << "expected InputError";
    } catch (const InputError& e) {
        EXPECT_STREQ(e.what(),
                     "job: unknown kernel: fmii (did you mean fmi?)");
    }
}

// ---------------------------------------------------------------------
// Fake kernels

/**
 * Shared strings/flags driving the fake kernels. A kernel whose name
 * is gated blocks inside run() until release(); every run() start is
 * appended to `started` so tests can assert dispatch order.
 */
struct FakeControl
{
    std::mutex m;
    std::condition_variable cv;
    std::vector<std::string> started;
    std::set<std::string> gated;
    std::atomic<int> prepare_calls{0};

    void
    recordStart(const std::string& name)
    {
        std::unique_lock<std::mutex> lock(m);
        started.push_back(name);
        cv.notify_all();
        cv.wait(lock, [&] { return gated.count(name) == 0; });
    }

    void
    release(const std::string& name)
    {
        std::lock_guard<std::mutex> lock(m);
        gated.erase(name);
        cv.notify_all();
    }

    /** Block until `name` has entered run(). */
    void
    awaitStart(const std::string& name)
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] {
            return std::find(started.begin(), started.end(), name) !=
                   started.end();
        });
    }

    std::vector<std::string>
    startOrder()
    {
        std::lock_guard<std::mutex> lock(m);
        return started;
    }
};

class FakeKernel : public Benchmark
{
  public:
    /** throw_on_run: 1-based run() call that throws; 0 = never. */
    FakeKernel(std::string name, FakeControl* control,
               unsigned throw_on_run = 0)
        : control_(control), throw_on_run_(throw_on_run)
    {
        info_.name = std::move(name);
    }

    const Info& info() const override { return info_; }

    void prepare(DatasetSize) override { ++control_->prepare_calls; }

    u64
    run(ThreadPool&) override
    {
        control_->recordStart(info_.name);
        if (throw_on_run_ && ++runs_ >= throw_on_run_) {
            throw InputError("kernel exploded: " + info_.name);
        }
        return 1;
    }

    u64 characterize(CharProbe&) override { return 0; }
    std::vector<u64> taskWork() override { return {1}; }

  private:
    Info info_;
    FakeControl* control_;
    unsigned throw_on_run_;
    unsigned runs_ = 0;
};

/** Scheduler config whose registry is the given fake kernel names.
 *  Names starting with "boom" throw on the first run() call; names
 *  starting with "late-boom" complete one repeat, then throw. */
Scheduler::Config
fakeConfig(FakeControl* control, std::vector<std::string> names,
           unsigned workers, size_t queue_depth)
{
    Scheduler::Config config;
    config.workers = workers;
    config.queue_depth = queue_depth;
    config.kernels = names;
    config.kernel_factory = [control](const std::string& name) {
        unsigned throw_on_run = 0;
        if (name.rfind("late-boom", 0) == 0) {
            throw_on_run = 2;
        } else if (name.rfind("boom", 0) == 0) {
            throw_on_run = 1;
        }
        return std::make_unique<FakeKernel>(name, control,
                                            throw_on_run);
    };
    return config;
}

JobSpec
job(const std::string& kernel, unsigned threads = 1,
    serve::Priority priority = serve::Priority::kNormal)
{
    JobSpec spec;
    spec.kernel = kernel;
    spec.threads = threads;
    spec.priority = priority;
    return spec;
}

// ---------------------------------------------------------------------
// Scheduler behaviour

TEST(ServeScheduler, RunsJobsAndReportsMetrics)
{
    FakeControl control;
    Scheduler scheduler(fakeConfig(&control, {"a", "b"}, 2, 8));
    auto h1 = scheduler.submit(job("a"));
    auto h2 = scheduler.submit(job("b", 2));
    h1.wait();
    h2.wait();
    EXPECT_EQ(h1.status(), JobStatus::kDone);
    EXPECT_EQ(h2.status(), JobStatus::kDone);
    EXPECT_EQ(h1.metrics().tasks, 1u);
    EXPECT_EQ(h1.metrics().pool_threads, 1u);
    EXPECT_EQ(h2.metrics().pool_threads, 2u);
    scheduler.drain();
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.failed, 0u);
}

TEST(ServeScheduler, WaitedJobIsAlreadyCountedInStats)
{
    // Once wait() returns, stats() counts the job as finished: a client
    // that WAITs and then asks for STATS never sees it still running.
    FakeControl control;
    Scheduler scheduler(fakeConfig(&control, {"a", "boom"}, 1, 8));
    for (u64 i = 1; i <= 2000; ++i) {
        scheduler.submit(job(i % 10 == 0 ? "boom" : "a")).wait();
        const auto stats = scheduler.stats();
        ASSERT_EQ(stats.completed + stats.failed, i);
        ASSERT_EQ(stats.running, 0u);
        ASSERT_EQ(stats.latency.jobs, i);
    }
    scheduler.drain();
}

TEST(ServeScheduler, SubmitDispatchesWhenBudgetIsFree)
{
    // Admission and dispatch are one critical section: a job that fits
    // the free budget is already running when submit() returns.
    FakeControl control;
    control.gated.insert("gate");
    Scheduler scheduler(fakeConfig(&control, {"gate"}, 1, 4));
    auto handle = scheduler.submit(job("gate"));
    EXPECT_EQ(handle.status(), JobStatus::kRunning);
    EXPECT_EQ(handle.metrics().dispatch_seq, 1u);
    EXPECT_EQ(handle.metrics().pool_threads, 1u);
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.running, 1u);
    EXPECT_EQ(stats.queued, 0u);
    control.release("gate");
    scheduler.drain();
    EXPECT_EQ(handle.status(), JobStatus::kDone);
}

TEST(ServeScheduler, SubmitValidatesSpec)
{
    FakeControl control;
    Scheduler scheduler(fakeConfig(&control, {"a"}, 1, 4));
    EXPECT_THROW(scheduler.submit(job("unknown")), InputError);
    EXPECT_THROW(scheduler.submit(job("a", 0)), InputError);
}

TEST(ServeScheduler, AdmissionRejectsWhenFull)
{
    FakeControl control;
    control.gated.insert("gate");
    Scheduler scheduler(fakeConfig(&control, {"gate", "a"}, 1, 2));
    auto blocker = scheduler.submit(job("gate"));
    control.awaitStart("gate"); // worker busy, queue empty
    auto q1 = scheduler.submit(job("a"));
    auto q2 = scheduler.submit(job("a"));
    auto q3 = scheduler.submit(job("a")); // queue holds 2: rejected
    EXPECT_EQ(q3.status(), JobStatus::kRejected);
    EXPECT_NE(q3.error().find("queue full"), std::string::npos)
        << q3.error();
    control.release("gate");
    scheduler.drain();
    EXPECT_EQ(blocker.status(), JobStatus::kDone);
    EXPECT_EQ(q1.status(), JobStatus::kDone);
    EXPECT_EQ(q2.status(), JobStatus::kDone);
    EXPECT_EQ(q3.status(), JobStatus::kRejected);
    EXPECT_EQ(scheduler.stats().rejected, 1u);
    EXPECT_EQ(scheduler.stats().completed, 3u);
}

TEST(ServeScheduler, FifoOrder)
{
    FakeControl control;
    Scheduler scheduler(fakeConfig(&control, {"j1", "j2", "j3", "j4"},
                                   1, 8));
    std::vector<JobHandle> handles;
    for (const auto* name : {"j1", "j2", "j3", "j4"}) {
        handles.push_back(scheduler.submit(job(name)));
    }
    scheduler.drain();
    EXPECT_EQ(control.startOrder(),
              (std::vector<std::string>{"j1", "j2", "j3", "j4"}));
}

TEST(ServeScheduler, SmallJobsBypassWideHeadUntilAged)
{
    FakeControl control;
    control.gated.insert("R");
    // 2 workers: R holds one worker, the wide job L (threads=2)
    // cannot fit and is bypassed by S1..S4 (kAgingLimit = 4 times);
    // its fifth bypass is forbidden, so S5 must wait behind it even
    // though a worker is free.
    static_assert(Scheduler::kAgingLimit == 4);
    Scheduler scheduler(fakeConfig(
        &control, {"R", "L", "S1", "S2", "S3", "S4", "S5"}, 2, 8));
    auto r = scheduler.submit(job("R"));
    control.awaitStart("R");
    auto l = scheduler.submit(job("L", 2));
    std::vector<JobHandle> small;
    for (const auto* name : {"S1", "S2", "S3", "S4", "S5"}) {
        small.push_back(scheduler.submit(job(name)));
    }
    small[3].wait(); // all four bypasses happened
    EXPECT_EQ(l.status(), JobStatus::kQueued);
    EXPECT_EQ(small[4].status(), JobStatus::kQueued); // reserved for L
    control.release("R");
    scheduler.drain();
    EXPECT_EQ(control.startOrder(),
              (std::vector<std::string>{"R", "S1", "S2", "S3", "S4", "L",
                                        "S5"}));
}

TEST(ServeScheduler, CancelQueuedNotRunning)
{
    FakeControl control;
    control.gated.insert("gate");
    Scheduler scheduler(fakeConfig(&control, {"gate", "a"}, 1, 8));
    auto running = scheduler.submit(job("gate"));
    control.awaitStart("gate");
    auto queued1 = scheduler.submit(job("a"));
    auto queued2 = scheduler.submit(job("a"));
    EXPECT_FALSE(running.cancel()); // already dispatched
    EXPECT_TRUE(queued1.cancel());  // cancel mid-queue
    EXPECT_FALSE(queued1.cancel()); // already terminal
    EXPECT_EQ(queued1.status(), JobStatus::kCancelled);
    EXPECT_NE(queued1.error().find("cancelled"), std::string::npos);
    control.release("gate");
    scheduler.drain();
    EXPECT_EQ(running.status(), JobStatus::kDone);
    EXPECT_EQ(queued2.status(), JobStatus::kDone); // queue kept going
    EXPECT_EQ(scheduler.stats().cancelled, 1u);
    // The cancelled job never ran.
    const auto order = control.startOrder();
    EXPECT_EQ(order.size(), 2u);
}

TEST(ServeScheduler, KernelThrowIsIsolated)
{
    FakeControl control;
    Scheduler scheduler(fakeConfig(&control, {"boom", "a"}, 1, 8));
    auto bad = scheduler.submit(job("boom"));
    auto good = scheduler.submit(job("a"));
    scheduler.drain();
    EXPECT_EQ(bad.status(), JobStatus::kFailed);
    EXPECT_NE(bad.error().find("kernel exploded"), std::string::npos)
        << bad.error();
    EXPECT_EQ(good.status(), JobStatus::kDone);
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(ServeScheduler, PriorityClassOrder)
{
    FakeControl control;
    control.gated.insert("R");
    // One worker: R occupies the budget while the other three queue,
    // then everything dispatches in strict class order regardless of
    // submission order.
    Scheduler scheduler(fakeConfig(&control, {"R", "B", "N", "H"},
                                   1, 8));
    auto r = scheduler.submit(job("R"));
    control.awaitStart("R");
    auto b = scheduler.submit(
        job("B", 1, serve::Priority::kBatch));
    auto n = scheduler.submit(
        job("N", 1, serve::Priority::kNormal));
    auto h = scheduler.submit(job("H", 1, serve::Priority::kHigh));
    control.release("R");
    scheduler.drain();
    EXPECT_EQ(control.startOrder(),
              (std::vector<std::string>{"R", "H", "N", "B"}));
    EXPECT_EQ(h.metrics().dispatch_seq, 2u);
    EXPECT_EQ(n.metrics().dispatch_seq, 3u);
    EXPECT_EQ(b.metrics().dispatch_seq, 4u);
}

TEST(ServeScheduler, BatchPromotedAfterClassBypasses)
{
    FakeControl control;
    control.gated.insert("R");
    // Every high dispatch past the pending batch job counts against
    // it; each kPromoteLimit of them promotes it one class. After
    // H1..H16 it is normal, after H17..H32 high — and as the oldest
    // high job it then beats H33 to the worker.
    static_assert(Scheduler::kPromoteLimit == 16);
    std::vector<std::string> names{"R", "B"};
    for (int i = 1; i <= 33; ++i) {
        names.push_back("H");
        names.back() += std::to_string(i);
    }
    Scheduler scheduler(fakeConfig(&control, names, 1, 64));
    auto r = scheduler.submit(job("R"));
    control.awaitStart("R");
    auto b = scheduler.submit(
        job("B", 1, serve::Priority::kBatch));
    for (size_t i = 2; i < names.size(); ++i) {
        scheduler.submit(job(names[i], 1, serve::Priority::kHigh));
    }
    control.release("R");
    scheduler.drain();
    std::vector<std::string> expected{"R"};
    expected.insert(expected.end(), names.begin() + 2, names.end() - 1);
    expected.push_back("B");
    expected.push_back("H33");
    EXPECT_EQ(control.startOrder(), expected);
}

TEST(ServeScheduler, FailedRepeatReportsCompletedRepeats)
{
    FakeControl control;
    // "late-boom" completes its first repeat and throws on the
    // second: the metrics must describe the one completed repeat, not
    // zeros or the values of the repeat that died.
    Scheduler scheduler(fakeConfig(&control, {"late-boom"}, 1, 4));
    auto spec = job("late-boom");
    spec.repeats = 3;
    auto handle = scheduler.submit(spec);
    handle.wait();
    EXPECT_EQ(handle.status(), JobStatus::kFailed);
    EXPECT_NE(handle.error().find("kernel exploded"),
              std::string::npos);
    const auto m = handle.metrics();
    EXPECT_EQ(m.repeats_completed, 1u);
    EXPECT_GT(m.best_run_seconds, 0.0);
    EXPECT_EQ(m.best_run_seconds, m.run_seconds);
    EXPECT_EQ(m.tasks, 1u);
    scheduler.drain();
}

TEST(ServeScheduler, FailedFirstRepeatReportsZeroBest)
{
    FakeControl control;
    Scheduler scheduler(fakeConfig(&control, {"boom"}, 1, 4));
    auto spec = job("boom");
    spec.repeats = 3;
    auto handle = scheduler.submit(spec);
    handle.wait();
    EXPECT_EQ(handle.status(), JobStatus::kFailed);
    const auto m = handle.metrics();
    EXPECT_EQ(m.repeats_completed, 0u);
    // No repeat completed, so there is no "best" to report — the
    // pre-fix code leaked 0.0-vs-uninitialized inconsistencies here.
    EXPECT_EQ(m.best_run_seconds, 0.0);
    EXPECT_EQ(m.run_seconds, 0.0);
    EXPECT_EQ(m.tasks, 0u);
    scheduler.drain();
}

TEST(ServeScheduler, StatsSnapshotsAreConsistentUnderLoad)
{
    FakeControl control;
    Scheduler scheduler(fakeConfig(&control, {"a"}, 2, 4));
    std::atomic<bool> stop{false};
    std::atomic<u64> attempts{0};

    // Hammer stats() while submitters race completions: every
    // snapshot must satisfy the conservation law. Before the fix,
    // queued came from the queue's own lock while the other counters
    // came from the scheduler mutex, so torn snapshots double- or
    // under-counted in-flight jobs.
    std::thread poller([&] {
        while (!stop.load(std::memory_order_acquire)) {
            const auto stats = scheduler.stats();
            EXPECT_EQ(stats.submitted,
                      stats.queued + stats.running + stats.completed +
                          stats.failed + stats.cancelled)
                << "queued=" << stats.queued
                << " running=" << stats.running
                << " completed=" << stats.completed;
        }
    });
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
        submitters.emplace_back([&] {
            for (int i = 0; i < 200; ++i) {
                scheduler.submit(job("a"));
                attempts.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto& thread : submitters) thread.join();
    scheduler.drain();
    stop.store(true, std::memory_order_release);
    poller.join();

    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.submitted + stats.rejected, attempts.load());
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.running, 0u);
    EXPECT_EQ(stats.submitted, stats.completed);
}

TEST(ServeScheduler, HandleIdsAreAdmissionOrder)
{
    FakeControl control;
    control.gated.insert("gate");
    Scheduler scheduler(fakeConfig(&control, {"gate", "a"}, 1, 1));
    auto blocker = scheduler.submit(job("gate"));
    control.awaitStart("gate"); // worker busy, queue empty
    auto second = scheduler.submit(job("a"));
    auto rejected = scheduler.submit(job("a")); // queue holds 1
    EXPECT_EQ(blocker.id(), 1u);
    EXPECT_EQ(second.id(), 2u);
    // A rejected job was never admitted and gets no id.
    EXPECT_EQ(rejected.status(), JobStatus::kRejected);
    EXPECT_EQ(rejected.id(), 0u);
    control.release("gate");
    scheduler.drain();
}

TEST(ServeScheduler, LatencySnapshotCoversFinishedJobs)
{
    FakeControl control;
    Scheduler scheduler(fakeConfig(&control, {"a", "boom"}, 2, 8));
    // An empty scheduler reports an all-zero snapshot.
    const auto empty = scheduler.stats().latency;
    EXPECT_EQ(empty.jobs, 0u);
    EXPECT_DOUBLE_EQ(empty.end_to_end.p50_ms, 0.0);

    for (int i = 0; i < 3; ++i) scheduler.submit(job("a"));
    scheduler.submit(job("boom")); // failed jobs count too
    scheduler.drain();

    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.failed, 1u);
    const auto& lat = stats.latency;
    EXPECT_EQ(lat.jobs, 4u); // completed + failed
    // Every decomposition stage produced positive quantiles with
    // p50 <= p95 <= p99, and a job's end-to-end latency dominates its
    // queue wait.
    for (const auto* q : {&lat.queue_wait, &lat.prepare, &lat.run,
                          &lat.end_to_end}) {
        EXPECT_GT(q->p50_ms, 0.0);
        EXPECT_LE(q->p50_ms, q->p95_ms);
        EXPECT_LE(q->p95_ms, q->p99_ms);
    }
    EXPECT_GE(lat.end_to_end.p99_ms, lat.queue_wait.p50_ms);
}

/** Sleeps a fixed time in prepare() and in each run(). */
class SleepKernel : public Benchmark
{
  public:
    SleepKernel(std::chrono::milliseconds prepare,
                std::chrono::milliseconds run)
        : prepare_(prepare), run_(run)
    {
        info_.name = "sleep";
    }

    const Info& info() const override { return info_; }
    void prepare(DatasetSize) override
    {
        std::this_thread::sleep_for(prepare_);
    }
    u64
    run(ThreadPool&) override
    {
        std::this_thread::sleep_for(run_);
        return 1;
    }
    u64 characterize(CharProbe&) override { return 0; }
    std::vector<u64> taskWork() override { return {1}; }

  private:
    Info info_;
    std::chrono::milliseconds prepare_;
    std::chrono::milliseconds run_;
};

/** Reserved worker time weighs each job's prepare and run time by the
 *  width it holds throughout. */
TEST(ServeScheduler, ReservedWorkerSecondsSplitPrepareAndRun)
{
    using namespace std::chrono_literals;
    Scheduler::Config config;
    config.workers = 4;
    config.kernels = {"sleep"};
    config.kernel_factory = [](const std::string&) {
        return std::make_unique<SleepKernel>(30ms, 10ms);
    };
    Scheduler scheduler(config);
    std::vector<JobHandle> handles;
    for (unsigned threads : {1u, 2u, 4u}) {
        JobSpec spec = job("sleep", threads);
        spec.repeats = 2;
        handles.push_back(scheduler.submit(spec));
    }
    scheduler.drain();

    double prepare = 0.0;
    double run = 0.0;
    for (const JobHandle& h : handles) {
        ASSERT_EQ(h.status(), JobStatus::kDone);
        const serve::JobMetrics m = h.metrics();
        prepare += m.pool_threads * m.prepare_seconds;
        run += m.pool_threads * m.run_seconds;
    }
    const auto stats = scheduler.stats();
    EXPECT_NEAR(stats.prepare_worker_seconds, prepare, 1e-9);
    EXPECT_NEAR(stats.run_worker_seconds, run, 1e-9);
    // 1 + 2 + 4 granted threads: at least 7 x 30 ms in prepare and
    // 7 x 2 x 10 ms in the repeats.
    EXPECT_GE(stats.prepare_worker_seconds, 7 * 0.030);
    EXPECT_GE(stats.run_worker_seconds, 7 * 2 * 0.010);
}

TEST(ServeScheduler, WaitForZeroAndNegativeTimeouts)
{
    FakeControl control;
    control.gated.insert("gate");
    Scheduler scheduler(fakeConfig(&control, {"gate"}, 1, 4));
    auto handle = scheduler.submit(job("gate"));
    control.awaitStart("gate");
    // Non-terminal job: zero and negative timeouts return false
    // immediately instead of blocking or throwing.
    EXPECT_FALSE(handle.waitFor(0.0));
    EXPECT_FALSE(handle.waitFor(-1.0));
    control.release("gate");
    handle.wait();
    // Terminal job: every timeout (even negative) reports true.
    EXPECT_TRUE(handle.waitFor(0.0));
    EXPECT_TRUE(handle.waitFor(-1.0));
    scheduler.drain();
}

TEST(ServeScheduler, WaitOnRejectedHandleReturnsImmediately)
{
    FakeControl control;
    control.gated.insert("gate");
    Scheduler scheduler(fakeConfig(&control, {"gate", "a"}, 1, 1));
    auto blocker = scheduler.submit(job("gate"));
    control.awaitStart("gate");
    auto fill = scheduler.submit(job("a"));
    auto rejected = scheduler.submit(job("a"));
    ASSERT_EQ(rejected.status(), JobStatus::kRejected);
    // kRejected is terminal from birth: wait()/waitFor() never block.
    rejected.wait();
    EXPECT_TRUE(rejected.waitFor(0.0));
    EXPECT_FALSE(rejected.cancel()); // nothing queued to remove
    EXPECT_EQ(rejected.metrics().dispatch_seq, 0u);
    control.release("gate");
    scheduler.drain();
}

TEST(ServeScheduler, CancelRacesDispatch)
{
    FakeControl control;
    Scheduler scheduler(fakeConfig(&control, {"a"}, 1, 8));
    // Submit-then-cancel immediately, many times: whatever the race's
    // outcome, the job must end exactly cancelled XOR started.
    unsigned cancelled = 0;
    std::vector<JobHandle> handles;
    for (int i = 0; i < 200; ++i) {
        auto handle = scheduler.submit(job("a"));
        if (handle.cancel()) {
            ++cancelled;
            EXPECT_EQ(handle.status(), JobStatus::kCancelled);
        }
        handles.push_back(std::move(handle));
    }
    scheduler.drain();
    unsigned done = 0;
    for (const auto& handle : handles) {
        const auto status = handle.status();
        EXPECT_TRUE(status == JobStatus::kDone ||
                    status == JobStatus::kCancelled);
        if (status == JobStatus::kDone) ++done;
    }
    EXPECT_EQ(done + cancelled, 200u);
    // A cancelled job never reached run(); a done job did, once.
    EXPECT_EQ(control.startOrder().size(), done);
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.cancelled, cancelled);
    EXPECT_EQ(stats.completed, done);
}

TEST(ServeScheduler, WaitForTimesOut)
{
    FakeControl control;
    control.gated.insert("gate");
    Scheduler scheduler(fakeConfig(&control, {"gate"}, 1, 4));
    auto handle = scheduler.submit(job("gate"));
    control.awaitStart("gate");
    EXPECT_FALSE(handle.waitFor(0.01));
    control.release("gate");
    handle.wait();
    EXPECT_EQ(handle.status(), JobStatus::kDone);
}

TEST(ServeScheduler, DrainStopsAdmissions)
{
    FakeControl control;
    Scheduler scheduler(fakeConfig(&control, {"a"}, 2, 8));
    std::vector<JobHandle> handles;
    for (int i = 0; i < 5; ++i) {
        handles.push_back(scheduler.submit(job("a")));
    }
    scheduler.drain();
    for (const auto& handle : handles) {
        EXPECT_EQ(handle.status(), JobStatus::kDone);
    }
    auto late = scheduler.submit(job("a"));
    EXPECT_EQ(late.status(), JobStatus::kRejected);
    EXPECT_NE(late.error().find("closed"), std::string::npos)
        << late.error();
    scheduler.drain(); // idempotent
}

TEST(ServeScheduler, ShutdownNowCancelsQueuedJobs)
{
    FakeControl control;
    control.gated.insert("gate");
    auto scheduler = std::make_unique<Scheduler>(
        fakeConfig(&control, {"gate", "a"}, 1, 8));
    auto running = scheduler->submit(job("gate"));
    control.awaitStart("gate");
    auto queued = scheduler->submit(job("a"));
    // shutdownNow cancels the queued job immediately, then blocks on
    // the running one; release its gate from another thread.
    std::thread releaser([&] {
        queued.wait(); // becomes kCancelled during shutdown
        control.release("gate");
    });
    scheduler->shutdownNow();
    releaser.join();
    EXPECT_EQ(running.status(), JobStatus::kDone);
    EXPECT_EQ(queued.status(), JobStatus::kCancelled);
    EXPECT_NE(queued.error().find("shutdown"), std::string::npos);
    scheduler.reset(); // destructor after shutdownNow is a no-op
}

// ---------------------------------------------------------------------
// Single-flight prepare through the artifact cache

/** Fake kernel whose prepare() builds-or-loads one shared artifact. */
class CachingKernel : public Benchmark
{
  public:
    CachingKernel(store::ArtifactCache* cache,
                  std::atomic<int>* builds)
        : cache_(cache), builds_(builds)
    {
        info_.name = "caching";
    }

    const Info& info() const override { return info_; }

    void
    prepare(DatasetSize) override
    {
        std::vector<u8> payload;
        const bool cached = cache_->fetchOrBuild(
            "shared", 7,
            [&](const std::shared_ptr<store::StoreReader>& reader) {
                const auto bytes = reader->section("payload");
                payload.assign(bytes.begin(), bytes.end());
            },
            [&] {
                ++*builds_;
                // Slow build: every concurrent job lands in the
                // flight while this sleeps.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
                payload.assign(64, u8{0xAB});
                cache_->write("shared", 7,
                              [&](store::StoreWriter& writer) {
                                  writer.add("payload",
                                             payload.data(),
                                             payload.size());
                              });
            });
        (void)cached;
        requireInput(payload.size() == 64 && payload[0] == u8{0xAB},
                     "bad artifact payload");
    }

    u64 run(ThreadPool&) override { return 1; }
    u64 characterize(CharProbe&) override { return 0; }
    std::vector<u64> taskWork() override { return {1}; }

  private:
    Info info_;
    store::ArtifactCache* cache_;
    std::atomic<int>* builds_;
};

TEST(ServeScheduler, SingleFlightPrepare)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "gb_serve_singleflight";
    std::filesystem::remove_all(dir);
    store::ArtifactCache cache(dir.string());
    std::atomic<int> builds{0};

    Scheduler::Config config;
    config.workers = 4;
    config.queue_depth = 8;
    config.kernels = {"caching"};
    config.kernel_factory = [&](const std::string&) {
        return std::make_unique<CachingKernel>(&cache, &builds);
    };
    Scheduler scheduler(std::move(config));
    std::vector<JobHandle> handles;
    for (int i = 0; i < 4; ++i) {
        handles.push_back(scheduler.submit(job("caching")));
    }
    scheduler.drain();
    for (const auto& handle : handles) {
        EXPECT_EQ(handle.status(), JobStatus::kDone)
            << handle.error();
    }
    // The whole point: 4 concurrent prepares, exactly one build. The
    // three non-builders each loaded the published artifact (a hit),
    // whether they blocked in the flight or arrived after publish.
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(cache.builds(), 1u);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_LE(cache.flightWaits(), 3u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace gb
