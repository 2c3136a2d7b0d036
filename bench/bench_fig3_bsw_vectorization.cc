/**
 * @file
 * Fig. 3 / §IV-B reproduction: inter-sequence vectorized bsw performs
 * more cell updates than the scalar implementation (the paper measures
 * 2.2x for the AVX2 16-bit version), because lanes whose alignment
 * aborts early or whose sequences are shorter idle until the whole
 * 16-lane batch finishes.
 *
 * Dataset: the bsw kernel's prepared pairs at --size (bswPairs()).
 * The overwork is modelled (BatchSwAligner's lockstep accounting) and
 * reported for the kernel's length-sorted order and for a seeded
 * shuffle of the same pairs, to show why BWA-MEM2 sorts by length
 * before batching. The measured table times the per-pair scalar
 * kernel (bandedSwScalar) against the one-pair anti-diagonal engine
 * behind bandedSw(), and exits 1 if any result differs from the
 * scalar kernel's.
 */
#include <iomanip>
#include <iostream>
#include <sstream>
#include <utility>

#include "align/banded_sw.h"
#include "core/kernels.h"
#include "harness.h"
#include "simd/simd.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace gb;

constexpr u64 kShuffleSeed = 113;

/** The per-pair scalar baseline: bandedSwScalar, uninstrumented. */
SwResult
scalarSw(const SwPair& pair, const SwParams& params)
{
    NullProbe probe;
    return bandedSwScalar(pair.query, pair.target, params, probe);
}

/** Pairs whose results differ in any field. */
u64
countMismatches(const std::vector<SwResult>& got,
                const std::vector<SwResult>& want)
{
    u64 mismatches = 0;
    for (size_t i = 0; i < want.size(); ++i) {
        mismatches += got[i] != want[i];
    }
    return mismatches;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options = bench::Options::parse(argc, argv);
    bench::printHeader(
        "Fig. 3 (vectorization overwork)",
        "vectorized bsw does ~2.2x the scalar cell updates", options);

    const auto kernel = createKernel("bsw");
    kernel->prepare(options.size);
    const std::span<const SwPair> sorted = bswPairs(*kernel);
    // The unsorted order: a seeded Fisher-Yates shuffle of the same
    // pairs.
    std::vector<SwPair> unsorted(sorted.begin(), sorted.end());
    Rng rng(kShuffleSeed);
    for (size_t i = unsorted.size(); i > 1; --i) {
        std::swap(unsorted[i - 1], unsorted[rng.below(i)]);
    }
    const SwParams params;
    const BatchSwAligner aligner(params);

    // The per-pair scalar kernel, timed. Its cell updates are the
    // baseline of both overwork rows: their sum ignores pair order.
    std::vector<SwResult> scalar_results(sorted.size());
    WallTimer scalar_timer;
    for (size_t i = 0; i < sorted.size(); ++i) {
        scalar_results[i] = scalarSw(sorted[i], params);
    }
    const double scalar_s = scalar_timer.seconds();
    u64 scalar_cells = 0;
    for (const SwResult& result : scalar_results) {
        scalar_cells += result.cell_updates;
    }

    Table table("Cell updates: scalar vs 16-lane inter-sequence");
    table.setHeader({"input order", "scalar cells", "vector cells",
                     "ratio", "paper"});

    for (const bool is_sorted : {false, true}) {
        const std::span<const SwPair> pairs =
            is_sorted ? sorted : std::span<const SwPair>(unsorted);
        NullProbe probe;
        BatchSwStats stats;
        aligner.align(pairs, probe, &stats);
        table.newRow()
            .cell(is_sorted ? "length-sorted (BWA-MEM2)" : "unsorted")
            .cell(formatCount(scalar_cells))
            .cell(formatCount(stats.totalCellUpdates()))
            .cellF(static_cast<double>(stats.totalCellUpdates()) /
                       static_cast<double>(scalar_cells),
                   2)
            .cell(is_sorted ? "~2.2x" : "-");
    }
    bench::report(table);
    std::cout << "\nShape check: ratio > 1 in both rows; sorting "
                 "shrinks but does not eliminate the overwork (early "
                 "exits and content-dependent aborts remain).\n";

    // Measured execution: the one-pair anti-diagonal engine pays no
    // lockstep overwork. It runs the pairs in the kernel's order.
    Table timed("Measured wall-clock, one thread: scalar vs SIMD "
                "engine (" +
                std::string(simd::simdLevelName(
                    simd::activeSimdLevel())) +
                ")");
    timed.setHeader(
        {"engine", "seconds", "speedup vs scalar", "results"});

    std::vector<SwResult> pair_results(sorted.size());
    WallTimer pair_timer;
    for (size_t i = 0; i < sorted.size(); ++i) {
        pair_results[i] =
            bandedSw(sorted[i].query, sorted[i].target, params);
    }
    const double pair_s = pair_timer.seconds();

    timed.newRow()
        .cell("scalar (per pair)")
        .cellF(scalar_s, 3)
        .cell("1.00x")
        .cell("reference");
    const u64 mismatches = countMismatches(pair_results, scalar_results);
    std::ostringstream speedup;
    speedup << std::fixed << std::setprecision(2)
            << (pair_s > 0 ? scalar_s / pair_s : 0.0) << "x";
    timed.newRow()
        .cell("simd (one pair, anti-diagonal, bandedSw)")
        .cellF(pair_s, 3)
        .cell(speedup.str())
        .cell(mismatches == 0 ? "identical" : "MISMATCH");
    std::cout << '\n';
    bench::report(timed);
    if (mismatches != 0) {
        std::cerr << "FAIL: " << mismatches
                  << " pair results differ from the scalar kernel\n";
        return 1;
    }
    return 0;
}
