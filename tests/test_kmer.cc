/**
 * @file
 * Tests for k-mer extraction and the counting hash table, including a
 * std::map oracle, robin-hood vs linear equivalence, and the
 * partitioned pass against the one-table count.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arch/probe.h"
#include "io/dna.h"
#include "kmer/kmer_counter.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gb {
namespace {

TEST(KmerPack, RevComp)
{
    // "ACGT" = 00 01 10 11 -> rc("ACGT") = "ACGT".
    const u64 acgt = 0b00011011;
    EXPECT_EQ(revcompKmer(acgt, 4), acgt);
    // "AAAA" <-> "TTTT".
    EXPECT_EQ(revcompKmer(0, 4), 0b11111111u);
    // Involution on random k-mers.
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        const u32 k = 1 + static_cast<u32>(rng.below(31));
        const u64 kmer = rng.next() & ((u64{1} << (2 * k)) - 1);
        EXPECT_EQ(revcompKmer(revcompKmer(kmer, k), k), kmer);
    }
}

TEST(KmerPack, CanonicalIsStrandInvariant)
{
    Rng rng(6);
    for (int i = 0; i < 200; ++i) {
        const u32 k = 1 + static_cast<u32>(rng.below(31));
        const u64 kmer = rng.next() & ((u64{1} << (2 * k)) - 1);
        EXPECT_EQ(canonicalKmer(kmer, k),
                  canonicalKmer(revcompKmer(kmer, k), k));
    }
}

TEST(ForEachKmer, EnumeratesAllWindows)
{
    const auto codes = encodeDna("ACGTAC");
    std::vector<u64> kmers;
    forEachKmer(std::span<const u8>(codes), 3,
                [&](u64 kmer, u64 pos) {
                    kmers.push_back(kmer);
                    EXPECT_EQ(kmers.size() - 1, pos);
                });
    // ACG CGT GTA TAC.
    ASSERT_EQ(kmers.size(), 4u);
    EXPECT_EQ(kmers[0], 0b000110u);
    EXPECT_EQ(kmers[1], 0b011011u);
}

TEST(ForEachKmer, SkipsAmbiguousWindows)
{
    const auto codes = encodeDna("ACGNACGT");
    std::vector<u64> positions;
    forEachKmer(std::span<const u8>(codes), 3,
                [&](u64, u64 pos) { positions.push_back(pos); });
    // Valid windows: ACG@0, then ACG@4 and CGT@5 after the N.
    const std::vector<u64> expected{0, 4, 5};
    EXPECT_EQ(positions, expected);
}

TEST(ForEachKmer, SequenceShorterThanK)
{
    const auto codes = encodeDna("AC");
    int n = 0;
    forEachKmer(std::span<const u8>(codes), 5, [&](u64, u64) { ++n; });
    EXPECT_EQ(n, 0);
}

class CounterSchemes
    : public ::testing::TestWithParam<HashScheme>
{
};

TEST_P(CounterSchemes, MatchesMapOracle)
{
    Rng rng(7);
    KmerCounter counter(12, GetParam());
    std::map<u64, u32> oracle;
    NullProbe probe;

    for (int i = 0; i < 3000; ++i) {
        // Small key space to force repeats and collisions.
        const u64 kmer = rng.below(700);
        counter.add(kmer, probe);
        ++oracle[kmer];
    }
    EXPECT_EQ(counter.size(), oracle.size());
    for (const auto& [kmer, count] : oracle) {
        EXPECT_EQ(counter.count(kmer), count) << "kmer " << kmer;
    }
    EXPECT_EQ(counter.count(999'999), 0u);
}

TEST_P(CounterSchemes, SaturatesAt65535)
{
    KmerCounter counter(6, GetParam());
    NullProbe probe;
    for (int i = 0; i < 70'000; ++i) counter.add(42, probe);
    EXPECT_EQ(counter.count(42), 65535u);
}

TEST_P(CounterSchemes, ThrowsOnOverflow)
{
    KmerCounter counter(4, GetParam()); // 16 slots
    NullProbe probe;
    EXPECT_THROW(
        {
            for (u64 i = 0; i < 16; ++i) counter.add(i, probe);
        },
        InternalError);
}

INSTANTIATE_TEST_SUITE_P(Schemes, CounterSchemes,
                         ::testing::Values(HashScheme::kLinear,
                                           HashScheme::kRobinHood));

TEST(KmerCounter, RobinHoodReducesProbeVariance)
{
    // At high load, robin hood equalizes probe distances; total probe
    // steps should not exceed linear probing by much and lookups of
    // present keys stay correct. (The design-choice ablation bench
    // reports the full numbers.)
    Rng rng(8);
    KmerCounter linear(14, HashScheme::kLinear);
    KmerCounter robin(14, HashScheme::kRobinHood);
    NullProbe probe;
    std::vector<u64> keys;
    for (int i = 0; i < 14'000; ++i) { // ~85 % load
        keys.push_back(rng.next());
        linear.add(keys.back(), probe);
        robin.add(keys.back(), probe);
    }
    for (u64 key : keys) {
        ASSERT_EQ(robin.count(key), linear.count(key));
    }
    EXPECT_EQ(robin.size(), linear.size());
}

TEST(CountKmers, EndToEndWithOracle)
{
    Rng rng(9);
    std::vector<std::vector<u8>> reads;
    std::map<u64, u32> oracle;
    const u32 k = 7;
    for (int r = 0; r < 50; ++r) {
        std::string s;
        for (int i = 0; i < 100; ++i) s += "ACGT"[rng.below(4)];
        reads.push_back(encodeDna(s));
        forEachKmer(std::span<const u8>(reads.back()), k,
                    [&](u64 kmer, u64) {
                        ++oracle[canonicalKmer(kmer, k)];
                    });
    }

    KmerCounter counter(16);
    NullProbe probe;
    const auto stats = countKmers(
        std::span<const std::vector<u8>>(reads), k, counter, probe);
    EXPECT_EQ(stats.total_kmers, 50u * (100 - k + 1));
    EXPECT_EQ(stats.distinct_kmers, oracle.size());
    for (const auto& [kmer, count] : oracle) {
        EXPECT_EQ(counter.count(kmer), count);
    }
}

TEST(KmerCounter, HistogramAndSolid)
{
    KmerCounter counter(8);
    NullProbe probe;
    for (int i = 0; i < 5; ++i) counter.add(1, probe);
    for (int i = 0; i < 2; ++i) counter.add(2, probe);
    counter.add(3, probe);
    EXPECT_EQ(counter.solidKmers(2), 2u);
    EXPECT_EQ(counter.solidKmers(5), 1u);
}

// ------------------------------------------ prefetch-pipelined adds

TEST(AddBatch, TableAndTrafficIdenticalToSequentialAdd)
{
    Rng rng(21);
    std::vector<u64> kmers;
    for (int i = 0; i < 5000; ++i) {
        // Narrow key space so duplicates and collisions occur.
        kmers.push_back(rng.below(700));
    }

    for (const HashScheme scheme :
         {HashScheme::kLinear, HashScheme::kRobinHood}) {
        KmerCounter want(11, scheme);
        CharProbe want_probe;
        for (const u64 k : kmers) want.add(k, want_probe);

        for (const u32 lookahead : {0u, 1u, 8u, 64u}) {
            KmerCounter got(11, scheme);
            CharProbe got_probe;
            got.addBatch(std::span<const u64>(kmers), got_probe,
                         lookahead);
            ASSERT_EQ(got.size(), want.size());
            ASSERT_EQ(got.probeSteps(), want.probeSteps());
            want.forEachEntry([&](u64 key, u16 cnt) {
                ASSERT_EQ(got.count(key), cnt)
                    << "lookahead=" << lookahead;
            });
            for (size_t c = 0; c < kNumOpClasses; ++c) {
                EXPECT_EQ(got_probe.counts().by_class[c],
                          want_probe.counts().by_class[c])
                    << opClassName(static_cast<OpClass>(c));
            }
            EXPECT_EQ(got_probe.loadBytes(), want_probe.loadBytes());
            EXPECT_EQ(got_probe.storeBytes(), want_probe.storeBytes());
        }
    }
}

TEST(AddBatch, SmallAndEmptyBatches)
{
    for (const size_t n : {size_t{0}, size_t{1}, size_t{17}}) {
        KmerCounter counter(8, HashScheme::kRobinHood);
        NullProbe probe;
        std::vector<u64> kmers(n, 5);
        counter.addBatch(std::span<const u64>(kmers), probe);
        EXPECT_EQ(counter.size(), n ? 1u : 0u);
        EXPECT_EQ(counter.count(5), n);
    }
}

/**
 * Reads sampled from one reference (so k-mers repeat), with
 * substitutions and Ns that break k-mer windows.
 */
std::vector<std::vector<u8>>
sampledReads(u64 seed, int count)
{
    Rng rng(seed);
    std::string ref(5000, 'A');
    for (auto& c : ref) c = "ACGT"[rng.below(4)];
    std::vector<std::vector<u8>> reads;
    for (int i = 0; i < count; ++i) {
        const u64 len = 60 + rng.below(341);
        std::string s = ref.substr(rng.below(ref.size() - len), len);
        const u64 edits = rng.below(4);
        for (u64 e = 0; e < edits; ++e) {
            s[rng.below(s.size())] = "ACGTN"[rng.below(5)];
        }
        if (rng.chance(0.25)) s[rng.below(s.size())] = 'N';
        reads.push_back(encodeDna(s));
    }
    return reads;
}

std::vector<std::pair<u64, u16>>
sortedEntries(const KmerCounter& table)
{
    std::vector<std::pair<u64, u16>> entries;
    table.forEachEntry([&](u64 kmer, u16 count) {
        entries.emplace_back(kmer, count);
    });
    std::sort(entries.begin(), entries.end());
    return entries;
}

TEST(CountKmersPrefetch, SharedPathMatchesCountKmers)
{
    // Lookahead 0 (no prefetch) and the default lookahead must fill
    // the same table with the same modeled traffic.
    const auto reads = sampledReads(23, 40);
    const u32 k = 17;

    KmerCounter plain(14, HashScheme::kRobinHood);
    CharProbe plain_probe;
    const auto s0 = countKmers(
        std::span<const std::vector<u8>>(reads), k, plain,
        plain_probe, 0);

    KmerCounter pre(14, HashScheme::kRobinHood);
    CharProbe pre_probe;
    const auto s1 = countKmers(
        std::span<const std::vector<u8>>(reads), k, pre, pre_probe);

    EXPECT_EQ(s1.total_kmers, s0.total_kmers);
    EXPECT_EQ(s1.distinct_kmers, s0.distinct_kmers);
    EXPECT_EQ(s1.probe_steps, s0.probe_steps);
    plain.forEachEntry(
        [&](u64 key, u16 cnt) { ASSERT_EQ(pre.count(key), cnt); });
    for (size_t c = 0; c < kNumOpClasses; ++c) {
        EXPECT_EQ(pre_probe.counts().by_class[c],
                  plain_probe.counts().by_class[c])
            << opClassName(static_cast<OpClass>(c));
    }
    EXPECT_EQ(pre_probe.loadBytes(), plain_probe.loadBytes());
    EXPECT_EQ(pre_probe.storeBytes(), plain_probe.storeBytes());
}

/**
 * Asserts that the union of countKmersPartitioned()'s tables equals
 * countKmers() into one table for pools of 1..5 threads, and that each
 * partition has 2^(capacity_log2 - floor(log2 P)) slots.
 */
void
expectPartitionsMatchSerial(const std::vector<std::vector<u8>>& reads,
                            u32 k, u32 capacity_log2,
                            const KmerCounter& serial)
{
    const auto want = sortedEntries(serial);
    for (const unsigned threads : {1u, 2u, 3u, 4u, 5u}) {
        ThreadPool pool(threads);
        const auto tables = countKmersPartitioned(
            std::span<const std::vector<u8>>(reads), k, capacity_log2,
            pool);
        ASSERT_EQ(tables.size(), threads);
        std::vector<std::pair<u64, u16>> got;
        u64 distinct = 0;
        for (const auto& table : tables) {
            EXPECT_EQ(table.capacity() << (std::bit_width(threads) - 1),
                      serial.capacity());
            distinct += table.size();
            const auto entries = sortedEntries(table);
            got.insert(got.end(), entries.begin(), entries.end());
        }
        std::sort(got.begin(), got.end());
        EXPECT_EQ(distinct, serial.size()) << "threads=" << threads;
        EXPECT_EQ(got, want) << "threads=" << threads;
    }
}

TEST(CountKmersPartitioned, UnionMatchesSerialCount)
{
    // The partitioned tables' (kmer, count) union must equal
    // countKmers() into one table at every pool size.
    const auto reads = sampledReads(29, 60);
    const u32 k = 17;
    const u32 capacity_log2 = 14;

    KmerCounter serial(capacity_log2, HashScheme::kRobinHood);
    NullProbe probe;
    countKmers(std::span<const std::vector<u8>>(reads), k, serial,
               probe);
    expectPartitionsMatchSerial(reads, k, capacity_log2, serial);
}

TEST(CountKmersPartitioned, UnionSaturatesLikeSerial)
{
    // One hot k-mer (poly-A) occurs 3 * 30k > 65535 times across three
    // reads: its owning partition must saturate at kMaxCount exactly
    // as the single serial table does.
    auto reads = sampledReads(31, 20);
    for (int r = 0; r < 3; ++r) {
        reads.push_back(std::vector<u8>(30'000 + 16, 0)); // "AAA...A"
    }
    const u32 k = 17;
    const u32 capacity_log2 = 14;

    KmerCounter serial(capacity_log2, HashScheme::kRobinHood);
    NullProbe probe;
    countKmers(std::span<const std::vector<u8>>(reads), k, serial,
               probe);
    const u64 hot = canonicalKmer(0, k);
    ASSERT_EQ(serial.count(hot), KmerCounter::kMaxCount);
    expectPartitionsMatchSerial(reads, k, capacity_log2, serial);
}

} // namespace
} // namespace gb
