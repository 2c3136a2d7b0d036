/**
 * @file
 * Fig. 3 / §IV-B reproduction: inter-sequence vectorized bsw performs
 * more cell updates than the scalar implementation (the paper measures
 * 2.2x for the AVX2 16-bit version), because lanes whose alignment
 * aborts early or whose sequences are shorter idle until the whole
 * 16-lane batch finishes.
 *
 * The overwork is modelled (BatchSwAligner's lockstep accounting) and
 * reported for both unsorted and length-sorted inputs to show why
 * BWA-MEM2 sorts by length before batching. The measured table times
 * the per-pair scalar kernel (bandedSwScalar) against the one-pair
 * anti-diagonal engine behind bandedSw(), and exits 1 if any result
 * differs from the scalar kernel's.
 */
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "align/banded_sw.h"
#include "harness.h"
#include "io/dna.h"
#include "simd/simd.h"
#include "simdata/genome.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace gb;

struct PairSet
{
    std::vector<std::vector<u8>> queries;
    std::vector<std::vector<u8>> targets;
    std::vector<SwPair> pairs;

    void
    rebuildSpans()
    {
        pairs.clear();
        for (size_t i = 0; i < queries.size(); ++i) {
            pairs.push_back({queries[i], targets[i]});
        }
    }
};

PairSet
makePairs(u64 num_pairs)
{
    GenomeParams gp;
    gp.length = 300'000;
    gp.seed = 111;
    const Genome genome = generateGenome(gp);
    Rng rng(112);

    PairSet set;
    for (u64 i = 0; i < num_pairs; ++i) {
        const bool spurious = rng.chance(0.12);
        // Spurious-seed jobs are long, with a divergent tail the
        // scalar path z-drops out of while the vector lane idles.
        const u64 qlen =
            spurious ? 260 + rng.below(60) : 80 + rng.below(72);
        const u64 tlen = qlen + 20 + rng.below(30);
        const u64 pos = rng.below(genome.seq.size() - tlen - 1);
        std::string target = genome.seq.substr(pos, tlen);
        std::string query;
        if (spurious) {
            const u64 other = rng.below(genome.seq.size() - qlen - 1);
            query = genome.seq.substr(pos + 10, 60) +
                    genome.seq.substr(other, qlen - 60);
        } else {
            query = genome.seq.substr(pos + 10, qlen);
            for (auto& c : query) {
                if (rng.chance(0.03)) c = "ACGT"[rng.below(4)];
            }
        }
        set.queries.push_back(encodeDna(query));
        set.targets.push_back(encodeDna(target));
    }
    set.rebuildSpans();
    return set;
}

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

void
sortByLength(PairSet& set)
{
    std::vector<u32> order(set.queries.size());
    for (u32 i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
        return set.queries[a].size() < set.queries[b].size();
    });
    PairSet sorted;
    for (u32 i : order) {
        sorted.queries.push_back(std::move(set.queries[i]));
        sorted.targets.push_back(std::move(set.targets[i]));
    }
    sorted.rebuildSpans();
    set = std::move(sorted);
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

    const u64 num_pairs = options.size == DatasetSize::kTiny ? 512
                          : options.size == DatasetSize::kSmall
                              ? 8'192
                              : 32'768;
    PairSet set = makePairs(num_pairs);
    const SwParams params;
    const BatchSwAligner aligner(params);

    Table table("Cell updates: scalar vs 16-lane inter-sequence");
    table.setHeader({"input order", "scalar cells", "vector cells",
                     "ratio", "paper"});

    for (const bool sorted : {false, true}) {
        if (sorted) sortByLength(set);
        u64 scalar_cells = 0;
        for (const auto& pair : set.pairs) {
            scalar_cells += scalarSw(pair, params).cell_updates;
        }
        NullProbe probe;
        BatchSwStats stats;
        aligner.align(std::span<const SwPair>(set.pairs), probe,
                      &stats);
        table.newRow()
            .cell(sorted ? "length-sorted (BWA-MEM2)" : "unsorted")
            .cell(formatCount(scalar_cells))
            .cell(formatCount(stats.totalCellUpdates()))
            .cellF(static_cast<double>(stats.totalCellUpdates()) /
                       static_cast<double>(scalar_cells),
                   2)
            .cell(sorted ? "~2.2x" : "-");
    }
    bench::report(table);
    std::cout << "\nShape check: ratio > 1 in both rows; sorting "
                 "shrinks but does not eliminate the overwork (early "
                 "exits and content-dependent aborts remain).\n";

    // Measured execution: the one-pair anti-diagonal engine pays no
    // lockstep overwork. Inputs are already length-sorted here.
    Table timed("Measured wall-clock, one thread: scalar vs SIMD "
                "engine (" +
                std::string(simd::simdLevelName(
                    simd::activeSimdLevel())) +
                ")");
    timed.setHeader(
        {"engine", "seconds", "speedup vs scalar", "results"});

    std::vector<SwResult> scalar_results(set.pairs.size());
    WallTimer scalar_timer;
    for (size_t i = 0; i < set.pairs.size(); ++i) {
        scalar_results[i] = scalarSw(set.pairs[i], params);
    }
    const double scalar_s = scalar_timer.seconds();

    std::vector<SwResult> pair_results(set.pairs.size());
    WallTimer pair_timer;
    for (size_t i = 0; i < set.pairs.size(); ++i) {
        pair_results[i] =
            bandedSw(set.pairs[i].query, set.pairs[i].target, params);
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
