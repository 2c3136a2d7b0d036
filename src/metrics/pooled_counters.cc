#include "metrics/pooled_counters.h"

namespace gb::metrics {

namespace {

/** Sum `value` into `total` with -1 ("missing") poisoning the sum. */
void
accumulate(double& total, double value)
{
    if (!PerfSample::valid(total)) return;
    if (!PerfSample::valid(value)) {
        total = -1.0;
        return;
    }
    total += value;
}

} // namespace

PooledCounters::PooledCounters(ThreadPool& pool) : pool_(pool)
{
    per_rank_.resize(pool.numThreads());
    // Each rank constructs its own group so the fds count the thread
    // that will execute that rank's share of every parallelFor.
    pool_.forEachThread([this](unsigned rank) {
        per_rank_[rank] = std::make_unique<PerfCounters>();
    });
    available_ = true;
    for (const auto& counters : per_rank_) {
        if (!counters->available()) {
            available_ = false;
            reason_ = counters->unavailableReason();
            break;
        }
    }
}

void
PooledCounters::start()
{
    pool_.forEachThread(
        [this](unsigned rank) { per_rank_[rank]->start(); });
}

PerfSample
PooledCounters::stopAggregate()
{
    std::vector<PerfSample> samples(per_rank_.size());
    pool_.forEachThread([this, &samples](unsigned rank) {
        samples[rank] = per_rank_[rank]->stop();
    });

    PerfSample total;
    total.available = available_;
    total.unavailable_reason = reason_;
    // The software events are summed even without the hardware ones.
    total.task_clock_seconds = 0.0;
    total.page_faults = 0.0;
    total.context_switches = 0.0;
    if (available_) {
        total.cycles = 0.0;
        total.instructions = 0.0;
        total.llc_misses = 0.0;
        total.branch_misses = 0.0;
    }
    for (const PerfSample& s : samples) {
        if (available_) {
            accumulate(total.cycles, s.cycles);
            accumulate(total.instructions, s.instructions);
            accumulate(total.llc_misses, s.llc_misses);
            accumulate(total.branch_misses, s.branch_misses);
        }
        accumulate(total.task_clock_seconds, s.task_clock_seconds);
        accumulate(total.page_faults, s.page_faults);
        accumulate(total.context_switches, s.context_switches);
    }
    return total;
}

} // namespace gb::metrics
