/**
 * @file
 * Ablation: software prefetching for kmer-cnt.
 *
 * Implements and measures the mitigation the paper proposes for
 * kmer-cnt's memory-latency stalls (§IV-F): since the k-mers to be
 * inserted are known in advance, the kernel can prefetch the upcoming
 * hash slots and overlap DRAM latency with the current insert.
 *
 * Every row runs countKmers(), which inserts through
 * KmerCounter::addBatch — the insert path the kmer-cnt kernel's
 * partitioned pass also uses — at the row's lookahead; the baseline is
 * lookahead 0 (no prefetch). The sweep therefore tunes the production
 * lookahead rather than a bench-local copy.
 */
#include <iostream>

#include "harness.h"
#include "io/dna.h"
#include "kmer/kmer_counter.h"
#include "simdata/genome.h"
#include "simdata/reads.h"
#include "util/timer.h"

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options = bench::Options::parse(argc, argv);
    bench::printHeader("Ablation: kmer-cnt software prefetch",
                       "paper §IV-F proposed mitigation", options);

    const u64 total_bases =
        options.size == DatasetSize::kTiny ? 1'000'000 : 12'000'000;
    const u32 cap_log2 =
        options.size == DatasetSize::kTiny ? 21 : 24;

    GenomeParams gp;
    gp.length = total_bases / 10;
    gp.seed = 181;
    const Genome genome = generateGenome(gp);
    LongReadParams lp;
    lp.seed = 182;
    lp.coverage = static_cast<double>(total_bases) /
                  static_cast<double>(genome.seq.size());
    std::vector<std::vector<u8>> reads;
    for (const auto& read : simulateLongReads(genome.seq, lp)) {
        reads.push_back(encodeDna(read.record.seq));
    }

    Table table("Software prefetching (3 runs each, best time)");
    table.setHeader(
        {"variant", "lookahead", "time (s)", "Mk-mers/s", "distinct"});
    u64 baseline_distinct = 0;

    auto report = [&](const char* name, u32 lookahead) {
        double best = 1e9;
        u64 distinct = 0;
        for (int rep = 0; rep < 3; ++rep) {
            KmerCounter counter(cap_log2);
            NullProbe probe;
            WallTimer timer;
            const auto stats =
                countKmers(std::span<const std::vector<u8>>(reads), 17,
                           counter, probe, lookahead);
            best = std::min(best, timer.seconds());
            distinct = stats.distinct_kmers;
            if (rep == 0 && lookahead == 0) {
                baseline_distinct = distinct;
            }
            if (lookahead != 0 && baseline_distinct != 0 &&
                distinct != baseline_distinct) {
                std::cerr << "count mismatch!\n";
                std::exit(1);
            }
        }
        const double bases = static_cast<double>(total_bases);
        table.newRow()
            .cell(name)
            .cell(lookahead)
            .cellF(best, 3)
            .cellF(bases / best / 1e6, 1)
            .cell(formatCount(distinct));
    };

    report("baseline", 0);
    for (u32 lookahead : {2u, 4u, 8u, 16u, 32u}) {
        report(lookahead == KmerCounter::kDefaultLookahead
                   ? "prefetch (default)"
                   : "prefetch",
               lookahead);
    }
    bench::report(table);
    std::cout << "\nExpected: identical distinct counts; prefetching "
                 "recovers throughput once the lookahead covers the "
                 "DRAM latency (the gain depends on how far the table "
                 "exceeds the LLC on this host).\n";
    return 0;
}
