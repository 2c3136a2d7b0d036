/**
 * @file
 * The one kernel measurement path. `genomicsbench run`, the serve
 * runner and the bench binaries all time kernels through these two
 * calls, so they share one timed window (kernel.prepare(), or
 * kernel.run() alone per repeat; counter start/stop stays outside),
 * one "best" (minimum over completed repeats, 0 when none) and one
 * set of kernel-category trace spans: `prepare:<kernel>`, and
 * `repeat:<kernel>` per repeat with the repeat index as its arg.
 */
#ifndef GB_CORE_MEASURE_H
#define GB_CORE_MEASURE_H

#include <vector>

#include "core/benchmark.h"
#include "metrics/pooled_counters.h"

namespace gb {

/** What measurePrepare() and measureRepeats() recorded so far. */
struct Measurement
{
    double prepare_seconds = 0.0;
    std::vector<double> repeat_seconds; ///< one per completed repeat
    u64 tasks = 0; ///< work units of the last completed repeat
    /** Counters of the best repeat; unavailable without counters. */
    metrics::PerfSample best_sample;

    /** Minimum over completed repeats; 0 when none completed. */
    double bestSeconds() const;

    /** Sum over completed repeats. */
    double totalSeconds() const;
};

/** Time kernel.prepare(size) under a `prepare:<kernel>` span. */
void measurePrepare(Benchmark& kernel, DatasetSize size,
                    Measurement& out);

/**
 * Time `repeats` kernel.run(pool) calls, appending each to `out` as it
 * completes; a throwing run() propagates with `out` holding the
 * completed repeats. `counters` (opened on `pool`) are sampled around
 * each repeat and the best repeat's sample kept.
 */
void measureRepeats(Benchmark& kernel, ThreadPool& pool,
                    unsigned repeats, Measurement& out,
                    metrics::PooledCounters* counters = nullptr);

} // namespace gb

#endif // GB_CORE_MEASURE_H
