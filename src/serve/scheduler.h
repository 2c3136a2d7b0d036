/**
 * @file
 * gb::serve — in-process batch/async serving over the kernel registry.
 *
 * The Scheduler turns the per-invocation CLI model into a throughput
 * system (ROADMAP north-star): many concurrent kernel-run requests
 * execute over one fixed worker budget. Core mechanics:
 *
 *  - One lock: the pending jobs, the free worker budget and every
 *    counter live under one mutex. submit() admits a job and, in the
 *    same critical section, dispatches whatever now fits; a finishing
 *    job returns its budget and dispatches again.
 *
 *  - Admission control: at most `queue_depth` jobs wait; past that a
 *    submission is rejected with a reason instead of blocking the
 *    submitter (backpressure).
 *
 *  - Pool-of-pools: the budget of `workers` threads is carved into
 *    per-job ThreadPools sized by each job's request (clamped to the
 *    budget). A job runs on a dedicated runner thread that becomes
 *    rank 0 of its pool, so N concurrent jobs use at most `workers`
 *    execution threads in total.
 *
 *  - Priority classes (high > normal > batch, JobSpec::priority):
 *    strict class order — a pending high job dispatches before any
 *    normal job, normal before batch.
 *
 *  - FIFO + big-job aging, per class: within one class jobs dispatch
 *    oldest-first; a job whose thread request does not fit the
 *    currently free budget can be bypassed by later, smaller jobs
 *    (small jobs never starve behind a wide one) — but only
 *    `kAgingLimit` times, after which the head reserves the budget:
 *    nothing in its own or a lower class dispatches until it fits
 *    (wide jobs never starve either). Bypasses by higher-class jobs
 *    count against the same limit.
 *
 *  - Promote-after-N-bypasses: each time a higher-class job
 *    dispatches past a pending lower-class job, that job's
 *    class-bypass count grows; at `kPromoteLimit` it moves up one
 *    class (batch -> normal -> high), so batch jobs cannot starve
 *    behind a steady stream of interactive work.
 *
 *  - Shared prepare: kernels build-or-load prepared artifacts through
 *    the process-global store::ArtifactCache, whose single-flight
 *    fetchOrBuild() means N concurrent jobs needing one artifact run
 *    exactly one prepare build.
 *
 *  - Error isolation: a throwing kernel fails its own job (status +
 *    message on the handle); the scheduler keeps serving.
 *
 *  - Graceful drain: drain() stops admissions and runs everything
 *    queued to completion; shutdownNow() (and the destructor) cancels
 *    queued jobs and waits only for the ones already running.
 */
#ifndef GB_SERVE_SCHEDULER_H
#define GB_SERVE_SCHEDULER_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/benchmark.h"
#include "serve/job.h"
#include "util/common.h"
#include "util/stats.h"

namespace gb::serve {

/** Lifecycle of one submitted job. */
enum class JobStatus : u8
{
    kQueued,    ///< admitted, waiting for dispatch
    kRunning,   ///< executing on its pool
    kDone,      ///< completed all repeats
    kFailed,    ///< kernel threw; error() has the message
    kCancelled, ///< removed from the queue before it started
    kRejected,  ///< never admitted; error() has the reason
};

/** Display name ("queued", "running", ...). */
const char* jobStatusName(JobStatus status);

/** True for states a job can never leave. */
bool jobStatusTerminal(JobStatus status);

/** Per-job measurements, valid once the job is terminal. */
struct JobMetrics
{
    double queue_seconds = 0.0;   ///< submit -> dispatch wait
    double prepare_seconds = 0.0; ///< prepare() wall time
    double run_seconds = 0.0;     ///< total across completed repeats
    /** Best over *completed* repeats; 0.0 when none completed. */
    double best_run_seconds = 0.0;
    /** Repeats that ran to completion (< spec.repeats on kFailed). */
    unsigned repeats_completed = 0;
    u64 tasks = 0; ///< work units of the last completed repeat
    unsigned pool_threads = 0; ///< granted pool size
    /** 1-based dispatch order across the scheduler's lifetime;
     *  0 = never dispatched. */
    u64 dispatch_seq = 0;
};

struct JobState; // internal; owned via shared_ptr by handle + queue

class Scheduler;

/**
 * Future-style handle to one submitted job. Copyable; status(),
 * wait(), waitFor(), metrics() and error() touch only the job's own
 * state and are safe at any time. cancel() goes through the scheduler
 * and must not be called after the Scheduler is destroyed.
 */
class JobHandle
{
  public:
    const JobSpec& spec() const;

    /**
     * Scheduler-assigned job id: 1-based admission order, stable for
     * the scheduler's lifetime. 0 for jobs that were never admitted
     * (kRejected). The same id tags every gb::trace event of the job,
     * so a trace timeline joins against STATUS/serve_job rows.
     */
    u64 id() const;

    JobStatus status() const;

    /** Block until the job reaches a terminal state. */
    void wait() const;

    /**
     * Block up to `seconds` for a terminal state.
     * @return true if the job is terminal on return.
     */
    bool waitFor(double seconds) const;

    /**
     * Remove the job from the queue before it starts. Returns true if
     * the job is now kCancelled; false if it was already dispatched,
     * terminal, or rejected (cancel-after-start is not supported —
     * kernels have no preemption points).
     */
    bool cancel();

    /** Measurements; stable once the job is terminal. */
    JobMetrics metrics() const;

    /** Failure message (kFailed) or rejection reason (kRejected). */
    std::string error() const;

  private:
    friend class Scheduler;
    explicit JobHandle(std::shared_ptr<JobState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<JobState> state_;
};

class Scheduler
{
  public:
    /** Builds a kernel by name (tests substitute fakes). */
    using KernelFactory =
        std::function<std::unique_ptr<Benchmark>(const std::string&)>;

    struct Config
    {
        unsigned workers = 0;   ///< total budget; 0 = hardware threads
        size_t queue_depth = 64; ///< pending jobs admitted; 0 acts as 1
        /** Kernel instantiation; default createKernel(). */
        KernelFactory kernel_factory;
        /** Valid kernel names for submit(); default kernelNames(). */
        std::vector<std::string> kernels;
    };

    /** p50/p95/p99 of one latency component, milliseconds. */
    struct LatencyQuantiles
    {
        double p50_ms = 0.0;
        double p95_ms = 0.0;
        double p99_ms = 0.0;
    };

    /**
     * Per-job latency decomposition over every dispatched job that
     * reached kDone or kFailed, estimated from LogHistograms of
     * nanosecond samples (fine bin base, so the quantile error is a
     * few percent, not a power of two). All zeros until the first job
     * finishes.
     */
    struct LatencySnapshot
    {
        u64 jobs = 0; ///< finished jobs the quantiles describe
        LatencyQuantiles queue_wait;  ///< submit -> dispatch
        LatencyQuantiles prepare;     ///< kernel prepare() wall
        LatencyQuantiles run;         ///< total repeat wall
        LatencyQuantiles end_to_end;  ///< submit -> terminal
    };

    /** Server-level counters (stats()). */
    struct Stats
    {
        unsigned workers = 0;
        size_t queue_depth = 0;
        u64 submitted = 0; ///< admitted to the queue
        u64 rejected = 0;  ///< refused by admission control
        u64 completed = 0;
        u64 failed = 0;
        u64 cancelled = 0;
        size_t queued = 0;  ///< currently waiting
        unsigned running = 0;
        unsigned peak_workers_busy = 0;
        /** Worker time reserved by finished jobs, in granted threads x
         *  seconds: a job holds its whole width through prepare() as
         *  well as through its repeats. */
        double prepare_worker_seconds = 0.0;
        double run_worker_seconds = 0.0;
        /** Taken in the same critical section as the counters, so the
         *  quantiles describe exactly `completed + failed` jobs. */
        LatencySnapshot latency;
    };

    /** Bypasses a class head tolerates before it reserves the budget
     *  (see file comment). */
    static constexpr unsigned kAgingLimit = 4;
    /** Higher-class dispatches past a pending job before it is
     *  promoted one priority class (see file comment). */
    static constexpr unsigned kPromoteLimit = 16;

    explicit Scheduler(Config config);

    /** shutdownNow(). */
    ~Scheduler();

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /**
     * Validate and admit one job. A job the policy picks and the free
     * budget fits is already kRunning when submit() returns. Throws
     * InputError on an invalid spec (unknown kernel, zero
     * threads/repeats). A structurally
     * valid job the server cannot absorb right now comes back as a
     * handle already in kRejected with the reason in error() — load
     * shedding is a normal outcome, not an exception.
     */
    JobHandle submit(JobSpec spec);

    /**
     * Graceful shutdown: stop admissions, execute everything already
     * queued, return when the last job finished. Idempotent and safe
     * to call from several threads at once (a network DRAIN verb and
     * a SIGTERM handler may race); submit() after drain() is
     * rejected.
     */
    void drain();

    /**
     * Fast shutdown: stop admissions, cancel still-queued jobs
     * (kCancelled, error "scheduler shutdown"), wait only for jobs
     * already running. Idempotent.
     */
    void shutdownNow();

    /** Resolved worker budget. */
    unsigned workers() const { return workers_; }

    Stats stats() const;

  private:
    /** Start every pending job the policy picks and the free budget
     *  fits, each on a detached runner thread. Caller holds mutex_. A
     *  runner that cannot be started terminates the process rather
     *  than leave a job counted as running forever. */
    void dispatchLocked() noexcept;
    /** The policy: index into pending_ of the job to start next, or
     *  kNone. Caller holds mutex_. */
    size_t selectIndex();
    void runJob(std::shared_ptr<JobState> job, unsigned granted);
    unsigned clampThreads(unsigned requested) const;
    bool cancelJob(const std::shared_ptr<JobState>& job,
                   const std::string& reason);

    friend class JobHandle;

    static constexpr size_t kNone = static_cast<size_t>(-1);

    Config config_;
    unsigned workers_ = 0;

    /**
     * Guards everything below. Admission, dispatch, completion and
     * cancellation each commit in one critical section, so stats()
     * snapshots are never torn: submitted == queued + running +
     * completed + failed + cancelled holds for every observer. Lock
     * order is mutex_ -> job->m.
     */
    mutable std::mutex mutex_;
    std::condition_variable idle_cv_; ///< nothing pending or running
    std::deque<std::shared_ptr<JobState>> pending_; ///< oldest first
    bool closed_ = false; ///< drain()/shutdownNow() stopped admissions
    unsigned free_workers_ = 0;
    unsigned running_ = 0;
    unsigned peak_busy_ = 0;
    u64 submitted_ = 0;
    u64 rejected_ = 0;
    u64 completed_ = 0;
    u64 failed_ = 0;
    u64 cancelled_ = 0;
    u64 dispatch_seq_ = 0; ///< jobs dispatched so far (1-based seq)
    u64 next_job_id_ = 0;  ///< ids handed out at admission (1-based)
    double prepare_worker_s_ = 0.0; ///< sum of granted x prepare s
    double run_worker_s_ = 0.0;     ///< sum of granted x run s

    /**
     * Latency decomposition histograms (guarded by mutex_). Samples
     * are nanoseconds — LogHistogram clamps values below 1 into its
     * first bin, so ms-scale samples must arrive in a fine unit — and
     * the bin base is ~1.15 for a few-percent quantile error.
     */
    static constexpr double kLatencyBase = 1.15;
    LogHistogram queue_wait_ns_{kLatencyBase};
    LogHistogram prepare_ns_{kLatencyBase};
    LogHistogram run_ns_{kLatencyBase};
    LogHistogram e2e_ns_{kLatencyBase};
};

} // namespace gb::serve

#endif // GB_SERVE_SCHEDULER_H
