/**
 * @file
 * Cross-module integration tests: seeding finds true read origins,
 * seed extension confirms them, dbg+phmm prefer the true haplotype,
 * abea prefers the true reference, and the prefetch variant of
 * kmer-cnt is count-identical to the baseline.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>

#include "abea/abea.h"
#include "abea/event_detect.h"
#include "align/banded_sw.h"
#include "dbg/debruijn.h"
#include "index/fm_index.h"
#include "io/dna.h"
#include "kmer/kmer_counter.h"
#include "phmm/pairhmm.h"
#include "simdata/genome.h"
#include "simdata/pore_model.h"
#include "simdata/reads.h"
#include "simdata/variants.h"
#include "util/rng.h"

namespace gb {
namespace {

TEST(Integration, SeedingRecoversTrueReadOrigins)
{
    GenomeParams gp;
    gp.length = 80'000;
    gp.seed = 31;
    const Genome genome = generateGenome(gp);
    const FmIndex fm = FmIndex::build(genome.seq);

    ShortReadParams rp;
    rp.coverage = 1.0;
    rp.seed = 32;
    const auto reads = simulateShortReads(genome.seq, rp);

    u64 recovered = 0;
    u64 tested = 0;
    NullProbe probe;
    for (const auto& read : reads) {
        if (tested >= 100) break;
        ++tested;
        const auto codes = encodeDna(read.record.seq);
        std::vector<Smem> seeds;
        fm.smems(std::span<const u8>(codes), 19, seeds, probe);
        bool found = false;
        for (const auto& seed : seeds) {
            for (const auto& hit : fm.locate(seed, 16)) {
                // Hit should map near the true origin on some strand.
                const i64 implied =
                    hit.reverse
                        ? static_cast<i64>(hit.pos) -
                              (static_cast<i64>(read.record.seq
                                                    .size()) -
                               seed.end)
                        : static_cast<i64>(hit.pos) - seed.begin;
                if (std::llabs(implied -
                               static_cast<i64>(read.true_pos)) <=
                    2) {
                    found = true;
                }
            }
        }
        recovered += found;
    }
    EXPECT_GE(recovered, tested * 95 / 100);
}

TEST(Integration, ExtensionScoresTrueSiteAboveDecoys)
{
    Rng rng(33);
    GenomeParams gp;
    gp.length = 50'000;
    gp.seed = 34;
    const Genome genome = generateGenome(gp);

    for (int trial = 0; trial < 20; ++trial) {
        const u64 pos = rng.below(genome.seq.size() - 400);
        std::string read = genome.seq.substr(pos, 120);
        for (auto& c : read) {
            if (rng.chance(0.02)) c = "ACGT"[rng.below(4)];
        }
        const auto q = encodeDna(read);
        const auto true_target =
            encodeDna(genome.seq.substr(pos, 140));
        const u64 decoy_pos = (pos + 17'000) % (genome.size() - 200);
        const auto decoy_target =
            encodeDna(genome.seq.substr(decoy_pos, 140));
        const i32 true_score = bandedSw(q, true_target).score;
        const i32 decoy_score = bandedSw(q, decoy_target).score;
        EXPECT_GT(true_score, decoy_score) << "trial " << trial;
        EXPECT_GT(true_score, 150);
    }
}

TEST(Integration, DbgPlusPhmmPreferTheTrueHaplotype)
{
    Rng rng(35);
    GenomeParams gp;
    gp.length = 10'000;
    gp.seed = 36;
    const Genome genome = generateGenome(gp);

    // Hom SNV at a known site; reads all carry it.
    const std::string ref_window = genome.seq.substr(4000, 400);
    std::string alt_window = ref_window;
    alt_window[200] = alt_window[200] == 'C' ? 'G' : 'C';

    AssemblyRegion region;
    region.reference = encodeDna(ref_window);
    for (int i = 0; i < 40; ++i) {
        const u64 start = rng.below(ref_window.size() - 150);
        std::string read = alt_window.substr(start, 150);
        for (auto& c : read) {
            if (rng.chance(0.002)) c = "ACGT"[rng.below(4)];
        }
        region.reads.push_back(encodeDna(read));
    }

    DbgStats stats;
    const auto haps = assembleRegion(region, DbgParams{}, stats);
    ASSERT_GE(haps.size(), 2u);

    // The alt haplotype must win total phmm likelihood.
    const auto alt_codes = encodeDna(alt_window);
    double best_sum = -1e300;
    std::vector<u8> best_hap;
    for (const auto& hap : haps) {
        double sum = 0.0;
        for (const auto& read : region.reads) {
            const std::vector<u8> quals(read.size(), 30);
            sum += pairHmmLogLikelihood(read, quals, hap)
                       .log10_likelihood;
        }
        if (sum > best_sum) {
            best_sum = sum;
            best_hap = hap;
        }
    }
    EXPECT_EQ(best_hap, alt_codes);
}

TEST(Integration, AbeaPrefersTrueReferenceOverMutated)
{
    Rng rng(37);
    GenomeParams gp;
    gp.length = 20'000;
    gp.seed = 38;
    const Genome genome = generateGenome(gp);
    const PoreModel pore(6, 39);

    const std::string segment = genome.seq.substr(3000, 800);
    SignalParams sp;
    sp.seed = 40;
    const auto sim = simulateSignal(pore, segment, sp);
    const auto events = detectEvents(sim.samples);

    std::string mutated = segment;
    for (auto& c : mutated) {
        if (rng.chance(0.10)) c = "ACGT"[rng.below(4)];
    }

    const auto true_result = alignEvents(events, pore, segment);
    const auto mut_result = alignEvents(events, pore, mutated);
    ASSERT_TRUE(true_result.valid);
    ASSERT_TRUE(mut_result.valid);
    EXPECT_GT(true_result.score, mut_result.score + 50.0f);
}

TEST(Integration, PrefetchCountingIsBitIdentical)
{
    GenomeParams gp;
    gp.length = 30'000;
    gp.seed = 41;
    const Genome genome = generateGenome(gp);
    LongReadParams lp;
    lp.coverage = 4.0;
    lp.seed = 42;
    std::vector<std::vector<u8>> reads;
    for (const auto& read : simulateLongReads(genome.seq, lp)) {
        reads.push_back(encodeDna(read.record.seq));
    }

    KmerCounter base(20);
    KmerCounter pref(20);
    NullProbe probe;
    const auto a = countKmers(
        std::span<const std::vector<u8>>(reads), 17, base, probe, 0);
    const auto b = countKmers(
        std::span<const std::vector<u8>>(reads), 17, pref, probe);
    EXPECT_EQ(a.total_kmers, b.total_kmers);
    EXPECT_EQ(a.distinct_kmers, b.distinct_kmers);
    base.forEachEntry([&](u64 kmer, u16 count) {
        ASSERT_EQ(pref.count(kmer), count);
    });
}

TEST(Integration, HetVariantYieldsTwoDbgHaplotypes)
{
    Rng rng(43);
    GenomeParams gp;
    gp.length = 5'000;
    gp.seed = 44;
    const Genome genome = generateGenome(gp);
    const std::string ref_window = genome.seq.substr(1000, 350);
    std::string alt_window = ref_window;
    alt_window[170] = alt_window[170] == 'A' ? 'T' : 'A';

    AssemblyRegion region;
    region.reference = encodeDna(ref_window);
    for (int i = 0; i < 40; ++i) {
        const std::string& source =
            i % 2 ? ref_window : alt_window; // heterozygous 50/50
        const u64 start = rng.below(source.size() - 140);
        region.reads.push_back(
            encodeDna(source.substr(start, 140)));
    }
    DbgStats stats;
    const auto haps = assembleRegion(region, DbgParams{}, stats);
    std::set<std::vector<u8>> hap_set(haps.begin(), haps.end());
    EXPECT_TRUE(hap_set.count(encodeDna(ref_window)));
    EXPECT_TRUE(hap_set.count(encodeDna(alt_window)));
}

} // namespace
} // namespace gb
