/**
 * @file
 * Ablation: phmm float-with-double-fallback vs always-double, and the
 * production task call.
 *
 * GATK computes in single precision and re-runs in double only on
 * underflow; this bench measures how much that strategy saves and how
 * often the fallback fires, on two input sets: reads contained in
 * their haplotype, and the reference-guided pipeline's window pairs,
 * whose reads hang off a 400-bp window's edges. A third row times the
 * dispatched runPhmmTask over the same pairs, grouped as tasks of
 * kReadsPerTask reads sharing one haplotype; it runs the double pass
 * first after a fallback and skips float passes it proves would fail.
 * The bench exits 1 if any of its likelihoods differs from the
 * template row's.
 *
 * Dataset: its own contained and pipeline-window pairs, the two classes
 * whose float-pass underflow it compares.
 */
#include <bit>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "io/dna.h"
#include "phmm/pairhmm.h"
#include "simdata/genome.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace gb;

/** Reads per task; every read of a task is scored against its one haplotype. */
constexpr u64 kReadsPerTask = 8;

/** The tasks of one input set. */
struct PairSet
{
    std::string name;
    std::vector<PhmmTask> tasks;
};

/** A 151-bp read from `seq` at `start` with 1% substitutions. */
PhmmRead
sampleRead(const std::string& seq, u64 start, u8 qual, Rng& rng)
{
    std::string read = seq.substr(start, 151);
    for (auto& c : read) {
        if (rng.chance(0.01)) c = "ACGT"[rng.below(4)];
    }
    return {encodeDna(read), std::vector<u8>(read.size(), qual)};
}

/** Reads inside a 200-499 bp haplotype, Q20-40. */
PairSet
containedPairs(const Genome& genome, u64 num_tasks, Rng& rng)
{
    PairSet set{"contained reads", {}};
    for (u64 t = 0; t < num_tasks; ++t) {
        const u64 hlen = 200 + rng.below(300);
        const u64 pos = rng.below(genome.seq.size() - hlen - 1);
        const std::string hap = genome.seq.substr(pos, hlen);
        PhmmTask task;
        task.haplotypes.push_back(encodeDna(hap));
        for (u64 r = 0; r < kReadsPerTask; ++r) {
            PhmmRead read =
                sampleRead(hap, rng.below(hlen - 151 + 1), 30, rng);
            for (auto& q : read.quals) {
                q = static_cast<u8>(20 + rng.below(21));
            }
            task.reads.push_back(std::move(read));
        }
        set.tasks.push_back(std::move(task));
    }
    return set;
}

/**
 * The reference-guided example's phmm stage: Q30 reads overlapping a
 * 400-bp window by 1-151 bases, scored against the window itself.
 */
PairSet
windowPairs(const Genome& genome, u64 num_tasks, Rng& rng)
{
    PairSet set{"pipeline-window reads", {}};
    constexpr u64 kWindow = 400;
    for (u64 t = 0; t < num_tasks; ++t) {
        const u64 win =
            151 + rng.below(genome.seq.size() - kWindow - 2 * 151);
        PhmmTask task;
        task.haplotypes.push_back(
            encodeDna(genome.seq.substr(win, kWindow)));
        for (u64 r = 0; r < kReadsPerTask; ++r) {
            const u64 start = win - 150 + rng.below(kWindow + 150);
            task.reads.push_back(sampleRead(genome.seq, start, 30, rng));
        }
        set.tasks.push_back(std::move(task));
    }
    return set;
}

/** Always-double forward pass (the ablation baseline). */
double
doubleOnly(const std::vector<u8>& read, const std::vector<u8>& quals,
           const std::vector<u8>& hap)
{
    NullProbe probe;
    u64 cells = 0;
    const double sum = detail::forwardScaled<double>(
        read, quals, hap, PhmmParams{}, kDoubleInitialScale, cells,
        probe);
    return sum > 0
               ? std::log10(sum) - std::log10(kDoubleInitialScale)
               : -400.0;
}

/** One row's outcome on an input set. */
struct SetResult
{
    double share = 0.0;  ///< template pairs that fell back
    u64 mismatches = 0;  ///< task-call likelihoods unlike the template's
};

/** Times the three rows on `set` and adds them to `table`. */
SetResult
measure(const PairSet& set, Table& table)
{
    // Strategy A: float with double fallback, through the scalar
    // template so both strategies run the same one-cell-at-a-time
    // code and differ only in precision.
    u64 fallbacks = 0;
    std::vector<double> results_a;
    NullProbe probe;
    WallTimer ta;
    for (const PhmmTask& task : set.tasks) {
        for (const PhmmRead& read : task.reads) {
            const auto r = pairHmmLogLikelihood(
                read.bases, read.quals, task.haplotypes[0], PhmmParams{},
                probe);
            results_a.push_back(r.log10_likelihood);
            fallbacks += r.used_double;
        }
    }
    const double time_a = ta.seconds();
    const u64 n = results_a.size();

    // Strategy B: always double.
    double max_err = 0.0;
    u64 k = 0;
    WallTimer tb;
    for (const PhmmTask& task : set.tasks) {
        for (const PhmmRead& read : task.reads) {
            const double b =
                doubleOnly(read.bases, read.quals, task.haplotypes[0]);
            max_err = std::max(max_err, std::abs(b - results_a[k++]));
        }
    }
    const double time_b = tb.seconds();

    // The production task call at the active dispatch level.
    std::vector<double> results_c;
    WallTimer tc;
    for (const PhmmTask& task : set.tasks) {
        const auto matrix = runPhmmTask(task, PhmmParams{}, probe);
        results_c.insert(results_c.end(), matrix.begin(), matrix.end());
    }
    const double time_c = tc.seconds();

    SetResult result;
    result.share =
        static_cast<double>(fallbacks) / static_cast<double>(n);
    for (u64 i = 0; i < n; ++i) {
        result.mismatches += std::bit_cast<u64>(results_c[i]) !=
                             std::bit_cast<u64>(results_a[i]);
    }
    table.newRow()
        .cell(set.name)
        .cell("float + double fallback (GATK)")
        .cellF(time_a, 3)
        .cell(std::to_string(fallbacks) + "/" + std::to_string(n))
        .cellF(100.0 * result.share, 1)
        .cell("-");
    table.newRow()
        .cell(set.name)
        .cell("always double")
        .cellF(time_b, 3)
        .cell("-")
        .cell("-")
        .cellF(max_err, 6);
    table.newRow()
        .cell(set.name)
        .cell("runPhmmTask (dispatched engine)")
        .cellF(time_c, 3)
        .cell("-")
        .cell("-")
        .cell(result.mismatches == 0
                  ? std::string("0 (bit-identical)")
                  : std::to_string(result.mismatches) + " differ");
    return result;
}

} // namespace

int
main(int argc, char** argv)
{
    const auto options = bench::Options::parse(argc, argv);
    bench::printHeader("Ablation: phmm precision",
                       "float+fallback vs always-double", options);

    const u64 num_tasks =
        (options.size == DatasetSize::kTiny ? 200 : 2000) / kReadsPerTask;
    GenomeParams gp;
    gp.length = 100'000;
    gp.seed = 131;
    const Genome genome = generateGenome(gp);
    Rng rng(132);
    const PairSet contained = containedPairs(genome, num_tasks, rng);
    const PairSet window = windowPairs(genome, num_tasks, rng);

    Table table("Precision strategies");
    table.setHeader({"input set", "strategy", "time (s)", "fallbacks",
                     "fallback %", "max |log10 diff|"});
    const SetResult c = measure(contained, table);
    const SetResult w = measure(window, table);
    bench::report(table);

    char shares[160];
    std::snprintf(shares, sizeof(shares),
                  "%.1f%% of the contained reads and %.1f%% of the "
                  "pipeline-window reads",
                  100.0 * c.share, 100.0 * w.share);
    std::cout << "\nMeasured: the float pass underflows and re-runs in "
                 "double on "
              << shares
              << ". The first two strategies run the scalar template "
                 "here, so their times compare precisions, not lane "
                 "widths; runPhmmTask runs the dispatched engine.\n";
    if (c.mismatches + w.mismatches > 0) {
        std::cerr << "FAIL: runPhmmTask differs from the template on "
                  << c.mismatches + w.mismatches << " pairs\n";
        return 1;
    }
    return 0;
}
