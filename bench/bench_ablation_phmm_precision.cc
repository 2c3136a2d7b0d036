/**
 * @file
 * Ablation: phmm float-with-double-fallback vs always-double.
 *
 * GATK computes in single precision and re-runs in double only on
 * underflow; this bench measures how much that strategy saves and how
 * often the fallback fires, on two input sets: reads contained in
 * their haplotype, and the reference-guided pipeline's window pairs,
 * whose reads hang off a 400-bp window's edges.
 */
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

/** Read / quality / haplotype triples of one input set. */
struct PairSet
{
    std::string name;
    std::vector<std::vector<u8>> reads;
    std::vector<std::vector<u8>> quals;
    std::vector<std::vector<u8>> haps;
};

/** A 151-bp read from `seq` at `start` with 1% substitutions. */
std::vector<u8>
sampleRead(const std::string& seq, u64 start, Rng& rng)
{
    std::string read = seq.substr(start, 151);
    for (auto& c : read) {
        if (rng.chance(0.01)) c = "ACGT"[rng.below(4)];
    }
    return encodeDna(read);
}

/** Reads taken 20 bp into a 200-499 bp haplotype, Q20-40. */
PairSet
containedPairs(const Genome& genome, u64 num_pairs, Rng& rng)
{
    PairSet set{"contained reads", {}, {}, {}};
    for (u64 i = 0; i < num_pairs; ++i) {
        const u64 hlen = 200 + rng.below(300);
        const u64 pos = rng.below(genome.seq.size() - hlen - 1);
        const std::string hap = genome.seq.substr(pos, hlen);
        set.haps.push_back(encodeDna(hap));
        set.reads.push_back(sampleRead(hap, 20, rng));
        std::vector<u8> q(151);
        for (auto& v : q) v = static_cast<u8>(20 + rng.below(21));
        set.quals.push_back(std::move(q));
    }
    return set;
}

/**
 * The reference-guided example's phmm stage: Q30 reads overlapping a
 * 400-bp window by 1-151 bases, scored against the window itself.
 */
PairSet
windowPairs(const Genome& genome, u64 num_pairs, Rng& rng)
{
    PairSet set{"pipeline-window reads", {}, {}, {}};
    constexpr u64 kWindow = 400;
    for (u64 i = 0; i < num_pairs; ++i) {
        const u64 win =
            151 + rng.below(genome.seq.size() - kWindow - 2 * 151);
        const u64 start = win - 150 + rng.below(kWindow + 150);
        set.haps.push_back(encodeDna(genome.seq.substr(win, kWindow)));
        set.reads.push_back(sampleRead(genome.seq, start, rng));
        set.quals.emplace_back(151, static_cast<u8>(30));
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

/** Times both strategies on `set`, adds its rows; the fallback share. */
double
measure(const PairSet& set, Table& table)
{
    const u64 n = set.reads.size();

    // Strategy A: float with double fallback, through the scalar
    // template so both strategies run the same one-cell-at-a-time
    // code and differ only in precision.
    u64 fallbacks = 0;
    std::vector<double> results_a(n);
    NullProbe probe;
    WallTimer ta;
    for (u64 i = 0; i < n; ++i) {
        const auto r = pairHmmLogLikelihood(set.reads[i], set.quals[i],
                                            set.haps[i], PhmmParams{},
                                            probe);
        results_a[i] = r.log10_likelihood;
        fallbacks += r.used_double;
    }
    const double time_a = ta.seconds();

    // Strategy B: always double.
    double max_err = 0.0;
    WallTimer tb;
    for (u64 i = 0; i < n; ++i) {
        const double b = doubleOnly(set.reads[i], set.quals[i],
                                    set.haps[i]);
        max_err = std::max(max_err, std::abs(b - results_a[i]));
    }
    const double time_b = tb.seconds();

    const double share = static_cast<double>(fallbacks) /
                         static_cast<double>(n);
    table.newRow()
        .cell(set.name)
        .cell("float + double fallback (GATK)")
        .cellF(time_a, 3)
        .cell(std::to_string(fallbacks) + "/" + std::to_string(n))
        .cellF(100.0 * share, 1)
        .cell("-");
    table.newRow()
        .cell(set.name)
        .cell("always double")
        .cellF(time_b, 3)
        .cell("-")
        .cell("-")
        .cellF(max_err, 6);
    return share;
}

} // namespace

int
main(int argc, char** argv)
{
    const auto options = bench::Options::parse(argc, argv);
    bench::printHeader("Ablation: phmm precision",
                       "float+fallback vs always-double", options);

    const u64 num_pairs =
        options.size == DatasetSize::kTiny ? 200 : 2000;
    GenomeParams gp;
    gp.length = 100'000;
    gp.seed = 131;
    const Genome genome = generateGenome(gp);
    Rng rng(132);
    const PairSet contained = containedPairs(genome, num_pairs, rng);
    const PairSet window = windowPairs(genome, num_pairs, rng);

    Table table("Precision strategies");
    table.setHeader({"input set", "strategy", "time (s)", "fallbacks",
                     "fallback %", "max |log10 diff|"});
    const double contained_share = measure(contained, table);
    const double window_share = measure(window, table);
    bench::report(table);

    char shares[160];
    std::snprintf(shares, sizeof(shares),
                  "%.1f%% of the contained reads and %.1f%% of the "
                  "pipeline-window reads",
                  100.0 * contained_share, 100.0 * window_share);
    std::cout << "\nMeasured: the float pass underflows and re-runs in "
                 "double on "
              << shares
              << ". Both strategies run the scalar template here, so "
                 "their times compare precisions, not lane widths.\n";
    return 0;
}
