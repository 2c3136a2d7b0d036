/**
 * @file
 * Ablation: phmm float-with-double-fallback vs always-double.
 *
 * GATK computes in single precision and re-runs in double only on
 * underflow; this bench measures how much that strategy saves and how
 * rare the fallback is on realistic reads.
 */
#include <cmath>
#include <iostream>

#include "harness.h"
#include "io/dna.h"
#include "phmm/pairhmm.h"
#include "simdata/genome.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace gb;

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

    std::vector<std::vector<u8>> reads;
    std::vector<std::vector<u8>> quals;
    std::vector<std::vector<u8>> haps;
    for (u64 i = 0; i < num_pairs; ++i) {
        const u64 hlen = 200 + rng.below(300);
        const u64 pos = rng.below(genome.seq.size() - hlen - 1);
        const std::string hap = genome.seq.substr(pos, hlen);
        std::string read = hap.substr(20, 151);
        for (auto& c : read) {
            if (rng.chance(0.01)) c = "ACGT"[rng.below(4)];
        }
        haps.push_back(encodeDna(hap));
        reads.push_back(encodeDna(read));
        std::vector<u8> q(151);
        for (auto& v : q) v = static_cast<u8>(20 + rng.below(21));
        quals.push_back(std::move(q));
    }

    // Strategy A: float with double fallback, through the scalar
    // template so both strategies run the same one-cell-at-a-time
    // code and differ only in precision.
    u64 fallbacks = 0;
    double max_err = 0.0;
    WallTimer ta;
    std::vector<double> results_a(num_pairs);
    NullProbe probe;
    for (u64 i = 0; i < num_pairs; ++i) {
        const auto r = pairHmmLogLikelihood(reads[i], quals[i], haps[i],
                                            PhmmParams{}, probe);
        results_a[i] = r.log10_likelihood;
        fallbacks += r.used_double;
    }
    const double time_a = ta.seconds();

    // Strategy B: always double.
    WallTimer tb;
    for (u64 i = 0; i < num_pairs; ++i) {
        const double b = doubleOnly(reads[i], quals[i], haps[i]);
        max_err = std::max(max_err, std::abs(b - results_a[i]));
    }
    const double time_b = tb.seconds();

    Table table("Precision strategies");
    table.setHeader({"strategy", "time (s)", "fallbacks",
                     "max |log10 diff|"});
    table.newRow()
        .cell("float + double fallback (GATK)")
        .cellF(time_a, 3)
        .cell(std::to_string(fallbacks) + "/" +
              std::to_string(num_pairs))
        .cell("-");
    table.newRow()
        .cell("always double")
        .cellF(time_b, 3)
        .cell("-")
        .cellF(max_err, 6);
    bench::report(table);
    std::cout << "\nExpected: fallbacks are rare (the paper: phmm "
                 "\"resorts to double-precision only in rare "
                 "cases\") and float matches double to ~1e-3 log10 "
                 "units. In this scalar build the two precisions run "
                 "at similar speed; the float path's real payoff is "
                 "in the AVX kernel, where it doubles the lane count "
                 "(8 vs 4 per 256-bit vector).\n";
    return 0;
}
