#include "core/measure.h"

#include <algorithm>
#include <numeric>

#include "trace/trace.h"
#include "util/timer.h"

namespace gb {

double
Measurement::bestSeconds() const
{
    if (repeat_seconds.empty()) return 0.0;
    return *std::min_element(repeat_seconds.begin(),
                             repeat_seconds.end());
}

double
Measurement::totalSeconds() const
{
    return std::accumulate(repeat_seconds.begin(), repeat_seconds.end(),
                           0.0);
}

void
measurePrepare(Benchmark& kernel, DatasetSize size, Measurement& out)
{
    // Names are interned per call (the registry dedups), and only
    // while tracing is on.
    trace::Span span(trace::enabled()
                         ? trace::internName("prepare:" + kernel.info().name)
                         : 0u,
                     trace::Category::kKernel);
    WallTimer timer;
    kernel.prepare(size);
    out.prepare_seconds = timer.seconds();
}

void
measureRepeats(Benchmark& kernel, ThreadPool& pool, unsigned repeats,
               Measurement& out, metrics::PooledCounters* counters)
{
    const u32 name = trace::enabled()
                         ? trace::internName("repeat:" + kernel.info().name)
                         : 0u;
    for (unsigned r = 0; r < repeats; ++r) {
        if (counters) counters->start();
        double seconds = 0.0;
        u64 tasks = 0;
        {
            trace::Span span(name, trace::Category::kKernel, r);
            WallTimer timer;
            tasks = kernel.run(pool);
            seconds = timer.seconds();
        }
        if (counters) {
            auto sample = counters->stopAggregate();
            if (out.repeat_seconds.empty() ||
                seconds < out.bestSeconds()) {
                out.best_sample = std::move(sample);
            }
        }
        out.repeat_seconds.push_back(seconds);
        out.tasks = tasks;
    }
}

} // namespace gb
