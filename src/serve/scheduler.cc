#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "core/measure.h"
#include "trace/trace.h"
#include "util/thread_pool.h"

namespace gb::serve {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

const char*
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::kQueued: return "queued";
      case JobStatus::kRunning: return "running";
      case JobStatus::kDone: return "done";
      case JobStatus::kFailed: return "failed";
      case JobStatus::kCancelled: return "cancelled";
      case JobStatus::kRejected: return "rejected";
    }
    return "?";
}

bool
jobStatusTerminal(JobStatus status)
{
    return status == JobStatus::kDone || status == JobStatus::kFailed ||
           status == JobStatus::kCancelled ||
           status == JobStatus::kRejected;
}

/**
 * Shared job record. The handle and (while queued) the submission
 * queue co-own it. `bypass_count`, `class_bypasses` and
 * `effective_priority` belong to the dispatcher and are only touched
 * under the queue lock (selectIndex); everything below `m` is guarded
 * by it.
 */
struct JobState
{
    JobSpec spec;
    Scheduler* owner = nullptr;
    /** 1-based admission order; 0 while unadmitted/rejected. */
    u64 id = 0;
    Clock::time_point submitted_at{};
    /** Times this job, as a class head that did not fit, was jumped
     *  (same-class aging rule; cross-class jumps count too). */
    unsigned bypass_count = 0;
    /** Times a higher-class job dispatched past this pending job;
     *  drives promote-after-N (resets on each promotion). */
    unsigned class_bypasses = 0;
    /** Current class: spec.priority, possibly promoted. */
    Priority effective_priority = Priority::kNormal;

    mutable std::mutex m;
    mutable std::condition_variable cv;
    JobStatus status = JobStatus::kQueued;
    std::string error;
    JobMetrics metrics;
};

// ---------------------------------------------------------------------
// JobHandle

const JobSpec&
JobHandle::spec() const
{
    return state_->spec;
}

u64
JobHandle::id() const
{
    // Written once before the handle is returned; read-only after.
    return state_->id;
}

JobStatus
JobHandle::status() const
{
    std::lock_guard<std::mutex> lock(state_->m);
    return state_->status;
}

void
JobHandle::wait() const
{
    std::unique_lock<std::mutex> lock(state_->m);
    state_->cv.wait(lock,
                    [&] { return jobStatusTerminal(state_->status); });
}

bool
JobHandle::waitFor(double seconds) const
{
    std::unique_lock<std::mutex> lock(state_->m);
    return state_->cv.wait_for(
        lock, std::chrono::duration<double>(seconds),
        [&] { return jobStatusTerminal(state_->status); });
}

bool
JobHandle::cancel()
{
    return state_->owner->cancelJob(state_, "cancelled by caller");
}

JobMetrics
JobHandle::metrics() const
{
    std::lock_guard<std::mutex> lock(state_->m);
    return state_->metrics;
}

std::string
JobHandle::error() const
{
    std::lock_guard<std::mutex> lock(state_->m);
    return state_->error;
}

// ---------------------------------------------------------------------
// Scheduler

Scheduler::Scheduler(Config config)
    : config_(std::move(config)),
      workers_(config_.workers
                   ? config_.workers
                   : std::max(1u,
                              std::thread::hardware_concurrency())),
      queue_(std::max<size_t>(1, config_.queue_depth))
{
    if (!config_.kernel_factory) {
        config_.kernel_factory = [](const std::string& name) {
            return createKernel(name);
        };
    }
    if (config_.kernels.empty()) config_.kernels = kernelNames();
    free_workers_.store(workers_, std::memory_order_relaxed);
    dispatcher_ = std::thread([this] { dispatchLoop(); });
}

Scheduler::~Scheduler()
{
    shutdownNow();
}

unsigned
Scheduler::clampThreads(unsigned requested) const
{
    return std::min(std::max(1u, requested), workers_);
}

JobHandle
Scheduler::submit(JobSpec spec)
{
    validateSpec(spec, config_.kernels);
    auto job = std::make_shared<JobState>();
    job->spec = std::move(spec);
    job->owner = this;
    job->submitted_at = Clock::now();
    job->effective_priority = job->spec.priority;

    // The push and its counter update commit under mutex_ as one
    // step, so a stats() snapshot never sees a job that is in the
    // queue but not yet counted (or vice versa). Lock order is
    // mutex_ -> queue lock; no path acquires them in reverse.
    std::string reason;
    bool admitted;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        admitted = queue_.tryPush(job, &reason);
        if (admitted) {
            ++submitted_;
            ++queued_;
            job->id = ++next_job_id_;
        } else {
            ++rejected_;
        }
    }
    if (admitted) {
        if (trace::enabled()) {
            trace::recordInstantEx(
                GB_TRACE_NAME_ID("job:submit"),
                trace::Category::kServe, job->id,
                static_cast<u64>(job->spec.priority),
                trace::threadRank());
        }
    } else {
        GB_TRACE_INSTANT(trace::Category::kServe, "job:reject");
        std::lock_guard<std::mutex> lock(job->m);
        job->status = JobStatus::kRejected;
        job->error = reason;
    }
    return JobHandle(std::move(job));
}

size_t
Scheduler::selectIndex(
    const std::deque<std::shared_ptr<JobState>>& pending)
{
    using Queue = BoundedQueue<std::shared_ptr<JobState>>;
    if (pending.empty()) return Queue::kNone;
    const unsigned free = free_workers_.load(std::memory_order_acquire);

    // Strict class order: walk high, then normal, then batch; within
    // a class the deque order is FIFO. Track each class's head
    // (oldest member) for the aging bookkeeping below.
    size_t class_head[kPriorityClasses];
    std::fill(class_head, class_head + kPriorityClasses, Queue::kNone);
    size_t chosen = Queue::kNone;
    int chosen_class = kPriorityClasses;
    for (int cls = 0; cls < kPriorityClasses && chosen == Queue::kNone;
         ++cls) {
        for (size_t i = 0; i < pending.size(); ++i) {
            JobState& job = *pending[i];
            if (static_cast<int>(job.effective_priority) != cls) {
                continue;
            }
            const bool is_head = class_head[cls] == Queue::kNone;
            if (is_head) class_head[cls] = i;
            if (clampThreads(job.spec.threads) <= free) {
                chosen = i;
                chosen_class = cls;
                break;
            }
            // An aged-out head reserves the budget: nothing in its
            // own or a lower class dispatches until it fits, so
            // freed workers accumulate for the wide job. Higher
            // classes were already scanned (and had nothing
            // dispatchable).
            if (is_head &&
                job.bypass_count >= config_.aging_limit) {
                return Queue::kNone;
            }
        }
    }
    if (chosen == Queue::kNone) return Queue::kNone;

    // Aging: every class head that did not fit and is now being
    // jumped — the chosen job's own class head (classic small-over-
    // wide bypass) and the heads of higher classes — moves one step
    // closer to reserving the budget.
    for (int cls = 0; cls <= chosen_class; ++cls) {
        const size_t head = class_head[cls];
        if (head != Queue::kNone && head != chosen) {
            ++pending[head]->bypass_count;
        }
    }

    // Promotion: every pending job in a class below the dispatched
    // one was just bypassed by higher-priority work; after
    // promote_limit such bypasses it moves up one class so batch
    // jobs cannot starve behind a steady interactive stream.
    for (size_t i = 0; i < pending.size(); ++i) {
        if (i == chosen) continue;
        JobState& job = *pending[i];
        if (static_cast<int>(job.effective_priority) <= chosen_class) {
            continue;
        }
        if (++job.class_bypasses >= config_.promote_limit) {
            job.class_bypasses = 0;
            job.effective_priority = static_cast<Priority>(
                static_cast<int>(job.effective_priority) - 1);
        }
    }
    return chosen;
}

void
Scheduler::dispatchLoop()
{
    for (;;) {
        auto item = queue_.popSelect(
            [this](const std::deque<std::shared_ptr<JobState>>& q) {
                return selectIndex(q);
            });
        if (!item) break; // closed and empty: drain complete
        std::shared_ptr<JobState> job = std::move(*item);
        const unsigned granted = clampThreads(job->spec.threads);
        if (trace::enabled()) {
            trace::recordInstantEx(GB_TRACE_NAME_ID("job:dispatch"),
                                   trace::Category::kServe, job->id,
                                   granted, trace::threadRank());
        }
        free_workers_.fetch_sub(granted, std::memory_order_acq_rel);
        u64 seq = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --queued_; // it left the queue in popSelect above
            ++running_;
            seq = ++dispatch_seq_;
            const unsigned busy =
                workers_ -
                free_workers_.load(std::memory_order_relaxed);
            peak_busy_ = std::max(peak_busy_, busy);
        }
        // Detached runner: completion is tracked via running_, which
        // shutdown waits on; the thread touches no scheduler state
        // after its final decrement.
        std::thread(
            [this, job = std::move(job), granted, seq]() mutable {
                runJob(std::move(job), granted, seq);
            })
            .detach();
    }
}

void
Scheduler::runJob(std::shared_ptr<JobState> job, unsigned granted,
                  u64 dispatch_seq)
{
    // Attribute this thread's events — and, via ThreadPool's
    // trace_job_id propagation, the per-rank pool events — to the job.
    trace::ScopedJobId trace_scope(job->id);
    if (trace::enabled()) {
        // Queue wait as a span anchored at submission time, so the
        // timeline shows the gap the p50/p95/p99 columns summarize.
        trace::recordSpan(GB_TRACE_NAME_ID("job:queue_wait"),
                          trace::Category::kServe,
                          trace::toNs(job->submitted_at),
                          trace::nowNs(),
                          static_cast<u64>(job->spec.priority));
    }
    const double queue_seconds = secondsSince(job->submitted_at);
    {
        std::lock_guard<std::mutex> lock(job->m);
        job->status = JobStatus::kRunning;
        job->metrics.queue_seconds = queue_seconds;
        job->metrics.pool_threads = granted;
        job->metrics.dispatch_seq = dispatch_seq;
    }

    JobStatus final_status = JobStatus::kDone;
    std::string error;
    Measurement measured;
    try {
        auto kernel = config_.kernel_factory(job->spec.kernel);
        measurePrepare(*kernel, job->spec.size, measured);
        // This job's slice of the worker budget: the runner thread is
        // rank 0, the pool spawns granted-1 more.
        ThreadPool pool(granted);
        measureRepeats(*kernel, pool, job->spec.repeats, measured);
    } catch (const std::exception& e) {
        // Error isolation: the kernel failed, the server did not.
        final_status = JobStatus::kFailed;
        error = e.what();
    } catch (...) {
        final_status = JobStatus::kFailed;
        error = "unknown error";
    }

    if (final_status == JobStatus::kDone) {
        GB_TRACE_INSTANT(trace::Category::kServe, "job:done",
                         measured.repeat_seconds.size());
    } else {
        GB_TRACE_INSTANT(trace::Category::kServe, "job:failed");
    }

    const double e2e_seconds = secondsSince(job->submitted_at);
    {
        // Publish the outcome, retire the job from the counters, return
        // its budget slice and wake the dispatcher as one step, so a
        // caller woken by wait() already sees the job counted in
        // stats(). Lock order is mutex_ -> job->m -> queue lock. This
        // block is the last touch of scheduler state: shutdown cannot
        // finish before it runs.
        std::scoped_lock lock(mutex_, job->m);
        // On a mid-repeat failure the metrics stay mutually
        // consistent: run_seconds / best_run_seconds / tasks all
        // describe the repeats_completed repeats that finished.
        job->metrics.prepare_seconds = measured.prepare_seconds;
        job->metrics.run_seconds = measured.totalSeconds();
        job->metrics.best_run_seconds = measured.bestSeconds();
        job->metrics.repeats_completed =
            static_cast<unsigned>(measured.repeat_seconds.size());
        job->metrics.tasks = measured.tasks;
        job->status = final_status;
        job->error = std::move(error);
        if (final_status == JobStatus::kDone) {
            ++completed_;
        } else {
            ++failed_;
        }
        // Latency decomposition in the counters' critical section, so
        // a stats() snapshot's quantiles always describe exactly its
        // completed + failed jobs. Nanosecond samples (see header).
        queue_wait_ns_.add(queue_seconds * 1e9);
        prepare_ns_.add(measured.prepare_seconds * 1e9);
        run_ns_.add(measured.totalSeconds() * 1e9);
        e2e_ns_.add(e2e_seconds * 1e9);
        --running_;
        free_workers_.fetch_add(granted, std::memory_order_acq_rel);
        queue_.notify();
        job->cv.notify_all();
        idle_cv_.notify_all();
    }
}

bool
Scheduler::cancelJob(const std::shared_ptr<JobState>& job,
                     const std::string& reason)
{
    auto removed = queue_.eraseIf(
        [&](const std::shared_ptr<JobState>& pending) {
            return pending.get() == job.get();
        });
    if (!removed) return false; // dispatched, terminal, or rejected
    if (trace::enabled()) {
        trace::recordInstantEx(GB_TRACE_NAME_ID("job:cancelled"),
                               trace::Category::kServe, job->id, 0,
                               trace::threadRank());
    }
    {
        std::lock_guard<std::mutex> lock(job->m);
        job->status = JobStatus::kCancelled;
        job->error = reason;
        job->cv.notify_all();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    --queued_;
    ++cancelled_;
    return true;
}

void
Scheduler::joinDispatcher()
{
    // drain()/shutdownNow() may race (e.g. a network DRAIN verb vs a
    // SIGTERM handler); join() from two threads is UB, so serialize.
    std::lock_guard<std::mutex> lock(join_mutex_);
    if (dispatcher_.joinable()) dispatcher_.join();
}

void
Scheduler::drain()
{
    queue_.close();
    joinDispatcher();
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [&] { return running_ == 0; });
}

void
Scheduler::shutdownNow()
{
    queue_.close();
    for (auto& job : queue_.drainAll()) {
        {
            std::lock_guard<std::mutex> lock(job->m);
            job->status = JobStatus::kCancelled;
            job->error = "scheduler shutdown";
            job->cv.notify_all();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        --queued_;
        ++cancelled_;
    }
    joinDispatcher();
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [&] { return running_ == 0; });
}

Scheduler::Stats
Scheduler::stats() const
{
    // One consistent snapshot: every counter (including the queued
    // count, which is mirrored under mutex_ rather than read from
    // the queue's own lock) comes from a single critical section, so
    // submitted == queued + running + completed + failed + cancelled
    // holds for every caller.
    Stats stats;
    stats.workers = workers_;
    stats.queue_depth = queue_.capacity();
    std::lock_guard<std::mutex> lock(mutex_);
    stats.queued = queued_;
    stats.submitted = submitted_;
    stats.rejected = rejected_;
    stats.completed = completed_;
    stats.failed = failed_;
    stats.cancelled = cancelled_;
    stats.running = running_;
    stats.peak_workers_busy = peak_busy_;
    auto quantiles = [](const LogHistogram& h) {
        LatencyQuantiles q;
        if (h.total() == 0) return q;
        q.p50_ms = h.quantile(0.50) / 1e6; // ns -> ms
        q.p95_ms = h.quantile(0.95) / 1e6;
        q.p99_ms = h.quantile(0.99) / 1e6;
        return q;
    };
    stats.latency.jobs = queue_wait_ns_.total();
    stats.latency.queue_wait = quantiles(queue_wait_ns_);
    stats.latency.prepare = quantiles(prepare_ns_);
    stats.latency.run = quantiles(run_ns_);
    stats.latency.end_to_end = quantiles(e2e_ns_);
    return stats;
}

} // namespace gb::serve
