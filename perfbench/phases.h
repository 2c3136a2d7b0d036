/**
 * @file
 * The three user-facing operations a benchmark run repeats: the
 * 12-kernel suite, the reference-guided pipeline and a serve batch.
 *
 * Each phase has set-up (counted in setup_s), a warm-up call that is
 * kept out of every median, and a timed call the run repeats. A call
 * made with `traced` set records spans and feeds the per-layer
 * metrics; end-to-end metrics come from the untraced calls.
 */
#ifndef PERFBENCH_PHASES_H
#define PERFBENCH_PHASES_H

#include <memory>
#include <string>
#include <vector>

#include "core/benchmark.h"
#include "index/fm_index.h"
#include "io/alignment.h"
#include "measure.h"
#include "serve/job.h"
#include "simdata/reads.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

/** All 12 kernels at one dataset size, SIMD engine, on one pool. */
class KernelSuite
{
  public:
    KernelSuite(gb::ThreadPool& pool, gb::DatasetSize size, u64 seed);

    /** Create and prepare every kernel with the artifact cache off. */
    void setup();

    /** First run() of each kernel; its time sizes the samples. */
    void warmUp(Checks& checks);

    /** One sample of every kernel, in a seeded random order. */
    void pass(Checks& checks, PeakRss& rss, bool traced);

    /** Per-kernel rates; per-layer figures; context switches. */
    void report(Report& e2e, Report& layers, Report& extras) const;

  private:
    struct Sample
    {
        bool traced = false;
        double cpu_s = 0.0; ///< per run() call, as are the rest
        double pool_busy_s = 0.0;
        double pool_wait_s = 0.0;
        double minflt = 0.0;
        double csw = 0.0; ///< context switches, voluntary + not
    };

    struct Entry
    {
        std::string name;
        std::string prepare_span; ///< "prepare.<k>"
        std::string run_span;     ///< "run.<k>"
        std::unique_ptr<gb::Benchmark> kernel;
        std::vector<double> prepare_s[2]; ///< per set-up, [traced]
        double first_run_s = 0.0;
        unsigned reps = 1; ///< back-to-back run() calls per sample
        u64 tasks = 0;
        double rss_peak_mb = 0.0;
        std::vector<Sample> samples;
        std::vector<double> run_s;        ///< untraced run() calls
        std::vector<double> traced_run_s; ///< span durations
    };

    gb::ThreadPool& pool_;
    gb::DatasetSize size_;
    gb::Rng rng_;
    std::vector<Entry> entries_;
    std::vector<size_t> order_; ///< kernel order of the last pass
};

/**
 * Reference-guided pipeline: simulated reads -> FmIndex::smems ->
 * locate -> bandedSw -> countPileup -> callSnvs, then assembleRegion +
 * runPhmmTask on every 400-bp window holding a call. Scored against
 * the injected SNVs.
 */
class RefGuided
{
  public:
    RefGuided(gb::ThreadPool& pool, u64 seed);
    ~RefGuided();

    /** Synthesize genome, SNVs and reads; build the FM-index. */
    void setup(bool traced);

    /** One checked pass kept out of every median. */
    void warmUp(Checks& checks);

    /** One pass; a pass below the accuracy gate is a failed check. */
    void pass(Checks& checks, bool traced);

    void report(Report& e2e, Report& layers) const;

  private:
    struct Pass
    {
        bool traced = false;
        double wall_s = 0.0;
        double aligned_frac = 0.0;
        double recall = 0.0;
        double precision = 0.0;
        std::vector<std::pair<std::string, double>> stage_s;
    };

    struct Data;

    gb::ThreadPool& pool_;
    u64 seed_;
    std::unique_ptr<Data> data_;
    std::vector<double> index_build_s_[2]; ///< per set-up, [traced]
    std::vector<Pass> passes_;
};

/**
 * A seeded batch of tiny-size jobs over all 12 kernels, submitted at
 * t=0 into serve::Scheduler and drained. Jobs prepare through a fresh
 * artifact cache warmed in set-up, so the timed batches take the store
 * load path.
 */
class ServeBatch
{
  public:
    /** Jobs request 1, 2 and `nproc` threads of `workers`. */
    ServeBatch(unsigned workers, unsigned nproc, u64 seed,
               std::string cache_root);
    ~ServeBatch();

    /** Point the store at a fresh cache dir and warm it. */
    void setup(unsigned rep);

    /** One checked batch kept out of every median. */
    void warmUp(Checks& checks);

    void batch(Checks& checks, bool traced);

    void report(Report& e2e, Report& layers) const;

  private:
    struct Batch
    {
        bool traced = false;
        double wall_s = 0.0;
        u64 done = 0;
        u64 cache_hits = 0;
        u64 cache_builds = 0;
        u64 flight_waits = 0;
        unsigned peak_busy = 0;
        std::vector<double> queue_ms, prepare_ms, run_ms;
    };

    /** The next batch's jobs, from the seeded generator. */
    std::vector<gb::serve::JobSpec> drawJobs();

    unsigned workers_;
    unsigned nproc_;
    std::string cache_root_;
    gb::Rng rng_;
    std::vector<Batch> batches_;
};

/** Work units run() returns for `kernel` at tiny and small size. */
u64 expectedTasks(const std::string& kernel, gb::DatasetSize size);

} // namespace perfbench

#endif // PERFBENCH_PHASES_H
