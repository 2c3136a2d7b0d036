#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "trace/trace.h"

namespace gb {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0) {
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    num_threads_ = num_threads;
    slots_.resize(num_threads_);
    // Rank 0 is the calling thread; spawn the rest.
    for (unsigned rank = 1; rank < num_threads_; ++rank) {
        workers_.emplace_back([this, rank] { workerLoop(rank); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    start_cv_.notify_all();
    for (auto& t : workers_) t.join();
}

void
ThreadPool::resetTelemetry()
{
    for (auto& slot : slots_) slot.t = RankTelemetry{};
}

std::vector<RankTelemetry>
ThreadPool::telemetry() const
{
    std::vector<RankTelemetry> out;
    out.reserve(slots_.size());
    for (const auto& slot : slots_) out.push_back(slot.t);
    return out;
}

void
ThreadPool::workerLoop(unsigned rank)
{
    trace::setThreadRank(static_cast<u16>(rank));
    u64 seen_generation = 0;
    for (;;) {
        Job* job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [&] {
                return shutdown_ || generation_ != seen_generation;
            });
            if (shutdown_) return;
            seen_generation = generation_;
            job = current_job_;
            // Participant gate (under the pool lock, so the Job
            // outlives every access): a late waker on a fully
            // subscribed or already-retired job never touches it —
            // the caller waits only for registered participants.
            if (job) {
                if (job->arrived < job->participants) {
                    ++job->arrived;
                } else {
                    job = nullptr;
                }
            }
        }
        if (job) runJob(*job, rank);
    }
}

void
ThreadPool::runJob(Job& job, unsigned rank)
{
    const auto entered = Clock::now();
    double busy = 0.0;
    u64 chunks = 0;
    u64 indices = 0;
    const u64 grain = std::max<u64>(1, job.grain);
    for (;;) {
        const u64 begin = job.cursor.fetch_add(grain,
                                               std::memory_order_relaxed);
        if (begin >= job.n) break;
        const u64 end = std::min(job.n, begin + grain);
        const auto chunk_start = Clock::now();
        try {
            for (u64 i = begin; i < end; ++i) (*job.body)(i, rank);
        } catch (...) {
            std::lock_guard<std::mutex> lock(job.error_mutex);
            if (!job.error) job.error = std::current_exception();
            // Drain remaining work so all workers finish promptly.
            job.cursor.store(job.n, std::memory_order_relaxed);
        }
        busy += secondsSince(chunk_start);
        ++chunks;
        indices += end - begin;
    }
    if (trace::enabled()) {
        // indices as the arg: how much of the loop this rank ran.
        trace::recordSpanEx(GB_TRACE_NAME_ID("pool:participate"),
                            trace::Category::kPool, trace::toNs(entered),
                            trace::nowNs(), job.trace_job_id, indices,
                            static_cast<u16>(rank));
    }
    RankTelemetry& t = slots_[rank].t;
    t.busy_seconds += busy;
    t.wait_seconds += std::max(0.0, secondsSince(entered) - busy);
    t.chunks += chunks;
    t.indices += indices;
    ++t.jobs;
    // Completion: one atomic increment per participant; only the last
    // one takes the pool lock (empty critical section orders against
    // the caller's predicate check) and wakes the sole waiter.
    // participants is read first: once a non-last increment lands, the
    // caller may return and retire the stack-allocated Job.
    const unsigned participants = job.participants;
    if (job.done_workers.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        participants) {
        { std::lock_guard<std::mutex> lock(mutex_); }
        done_cv_.notify_one();
    }
}

void
ThreadPool::runRanked(u64 n,
                      const std::function<void(u64, unsigned)>& body,
                      u64 grain)
{
    if (n == 0) return;
    if (num_threads_ == 1 || n == 1) {
        // Inline fast path; telemetry mirrors the scheduled path so
        // chunk accounting stays consistent (sum == ceilDiv(n, grain)).
        const u64 g = std::max<u64>(1, grain);
        RankTelemetry& t = slots_[0].t;
        GB_TRACE_SPAN(trace::Category::kPool, "pool:participate", n);
        const auto start = Clock::now();
        try {
            for (u64 i = 0; i < n; ++i) body(i, 0);
        } catch (...) {
            t.busy_seconds += secondsSince(start);
            ++t.jobs;
            throw;
        }
        t.busy_seconds += secondsSince(start);
        t.chunks += ceilDiv(n, g);
        t.indices += n;
        ++t.jobs;
        return;
    }
    const u64 g = std::max<u64>(1, grain);

    Job job;
    job.n = n;
    job.grain = grain;
    job.body = &body;
    job.trace_job_id = trace::currentJobId();
    job.participants = static_cast<unsigned>(
        std::min<u64>(num_threads_, ceilDiv(n, g)));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        current_job_ = &job;
        ++generation_;
    }
    // Wake every worker; the participant gate turns away the ranks a
    // job with fewer participants than threads has no work for. A
    // loop of notify_one() can lose a wake-up in glibc's condition
    // variable (sourceware BZ 25847) and leave the caller waiting on
    // a participant that never starts.
    start_cv_.notify_all();
    runJob(job, 0);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] {
            return job.done_workers.load(std::memory_order_acquire) ==
                   job.participants;
        });
        current_job_ = nullptr;
    }
    if (job.error) std::rethrow_exception(job.error);
}

void
ThreadPool::forEachThread(const std::function<void(unsigned)>& fn)
{
    if (num_threads_ == 1) {
        fn(0);
        return;
    }
    // One index per thread, with a barrier inside the body: each
    // thread claims exactly one index (it blocks before it could claim
    // a second), so every rank runs fn exactly once. fn exceptions are
    // deferred past the barrier — a throwing rank must still arrive or
    // the others would wait forever.
    std::mutex m;
    std::condition_variable cv;
    unsigned arrived = 0;
    std::exception_ptr first_error;
    runRanked(
        num_threads_,
        [&](u64, unsigned rank) {
            try {
                fn(rank);
            } catch (...) {
                std::lock_guard<std::mutex> lock(m);
                if (!first_error) {
                    first_error = std::current_exception();
                }
            }
            std::unique_lock<std::mutex> lock(m);
            if (++arrived == num_threads_) {
                cv.notify_all();
            } else {
                cv.wait(lock,
                        [&] { return arrived == num_threads_; });
            }
        },
        1);
    if (first_error) std::rethrow_exception(first_error);
}

void
ThreadPool::parallelFor(u64 n, const std::function<void(u64)>& body,
                        u64 grain)
{
    runRanked(n, [&](u64 i, unsigned) { body(i); }, grain);
}

} // namespace gb
