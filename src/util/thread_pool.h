/**
 * @file
 * Thread pool with a shared-cursor parallel-for scheduler.
 *
 * The paper parallelizes every kernel with OpenMP `schedule(dynamic)` so
 * that irregular per-task work is load-balanced across threads. This
 * pool reproduces that execution model: parallelFor() hands out small
 * index chunks from a shared atomic cursor, so threads that draw cheap
 * tasks simply come back for more. See docs/threading.md for the
 * protocol.
 *
 * Job start/finish is gated: a parallelFor wakes every worker but
 * admits at most min(numThreads()-1, ceilDiv(n, grain)-1) of them,
 * wakers that find the job fully subscribed never touch it, and only
 * the last finishing participant notifies the (sole) waiting caller.
 */
#ifndef GB_UTIL_THREAD_POOL_H
#define GB_UTIL_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.h"

namespace gb {

/**
 * Largest thread count a user may request (--threads, --workers,
 * job-file threads=); 0 still means hardware concurrency.
 */
inline constexpr unsigned kMaxThreads = 1024;

/**
 * Per-rank scheduler telemetry, accumulated across parallelFor calls
 * (paper Fig. 4/7: measured load balance instead of the modeled one).
 * busy is time spent inside body chunks; wait is the remainder of the
 * rank's in-job window (claim overhead + idling while other ranks
 * drain the cursor). Time parked between jobs is not counted. Per
 * job, sum(chunks) == ceilDiv(n, grain) and sum(indices) == n.
 */
struct RankTelemetry
{
    double busy_seconds = 0.0; ///< time executing body chunks
    double wait_seconds = 0.0; ///< in-job non-busy time
    u64 chunks = 0;            ///< claims that yielded work
    u64 indices = 0;           ///< loop indices executed
    u64 jobs = 0;              ///< parallelFor calls this rank joined
};

/**
 * Fixed-size pool of worker threads.
 *
 * Work is submitted through parallelFor(); arbitrary job submission is
 * intentionally not exposed because every kernel in the suite is a
 * data-parallel loop over independent tasks.
 */
class ThreadPool
{
  public:
    /**
     * Create a pool.
     *
     * @param num_threads Total worker count including the calling
     *        thread; 0 selects the hardware concurrency.
     */
    explicit ThreadPool(unsigned num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of threads that execute parallelFor bodies. */
    unsigned numThreads() const { return num_threads_; }

    /**
     * Run `body(i)` for every i in [0, n), in grain-sized chunks
     * claimed from a shared cursor.
     *
     * The calling thread participates. Exceptions thrown by the body
     * are captured and rethrown (first one wins) on the caller.
     *
     * @param n     Iteration count.
     * @param body  Callable invoked as body(u64 index).
     * @param grain Indices claimed per scheduling event (default 1,
     *              matching OpenMP schedule(dynamic) in the paper).
     */
    void parallelFor(u64 n, const std::function<void(u64)>& body,
                     u64 grain = 1);

    /**
     * Run `fn(rank)` exactly once on every pool thread (rank 0 is the
     * calling thread), then return. Used to set up or sample per-thread
     * state that must live on the worker itself — e.g. per-rank
     * perf_event fds (metrics::PooledCounters), which count only the
     * thread that opened them. The first exception thrown by `fn` is
     * rethrown on the caller after all threads have finished, so a
     * throwing rank cannot deadlock the internal barrier. Counts as
     * one job in the telemetry (the barrier wait is busy time).
     */
    void forEachThread(const std::function<void(unsigned)>& fn);

    /**
     * Zero the accumulated per-rank telemetry. Must not race with a
     * parallelFor in flight (telemetry is for the measuring caller).
     */
    void resetTelemetry();

    /** Copy of the accumulated telemetry, one entry per rank. */
    std::vector<RankTelemetry> telemetry() const;

  private:
    struct Job
    {
        u64 n = 0;
        u64 grain = 1;
        const std::function<void(u64, unsigned)>* body = nullptr;
        /** Ranks this job admits: min(numThreads, ceilDiv(n, grain)).
         *  The caller is always participant slot 0. */
        unsigned participants = 1;
        /** Participant slots handed out; guarded by pool mutex_. */
        unsigned arrived = 1;
        /** gb::trace job id of the submitting thread, propagated so
         *  worker-rank events attribute to the serve job they run
         *  for (0 when tracing is off or no job scope is active). */
        u64 trace_job_id = 0;
        std::atomic<u64> cursor{0}; ///< shared claim cursor
        std::atomic<unsigned> done_workers{0};
        std::exception_ptr error;
        std::mutex error_mutex;
    };

    /**
     * The scheduler behind parallelFor and forEachThread: runs
     * body(index, rank) with ranks in [0, numThreads()).
     */
    void runRanked(u64 n, const std::function<void(u64, unsigned)>& body,
                   u64 grain);
    void workerLoop(unsigned rank);
    void runJob(Job& job, unsigned rank);

    /** Cache-line-padded so ranks never share a telemetry line. */
    struct alignas(64) RankSlot
    {
        RankTelemetry t;
    };

    unsigned num_threads_;
    std::vector<std::thread> workers_;
    std::vector<RankSlot> slots_;

    std::mutex mutex_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    Job* current_job_ = nullptr;
    u64 generation_ = 0;
    bool shutdown_ = false;
};

} // namespace gb

#endif // GB_UTIL_THREAD_POOL_H
