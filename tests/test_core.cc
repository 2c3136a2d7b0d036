/**
 * @file
 * Suite-level tests: every kernel prepares, runs, characterizes and
 * reports task work through the public API.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "arch/cache_sim.h"
#include "core/benchmark.h"
#include "kmer/kmer_counter.h"
#include "util/rng.h"
#include "util/stats.h"

namespace gb {
namespace {

TEST(Registry, TwelveKernels)
{
    const auto names = kernelNames();
    EXPECT_EQ(names.size(), 12u);
    const std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), 12u);
    for (const auto& name : names) {
        const auto kernel = createKernel(name);
        EXPECT_EQ(kernel->info().name, name);
        EXPECT_FALSE(kernel->info().source_tool.empty());
        EXPECT_FALSE(kernel->info().work_unit.empty());
    }
    EXPECT_THROW(createKernel("nope"), InputError);
}

class EveryKernel : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryKernel, PrepareRunTaskWorkOnTiny)
{
    auto kernel = createKernel(GetParam());
    kernel->prepare(DatasetSize::kTiny);

    ThreadPool pool(2);
    const u64 tasks = kernel->run(pool);
    EXPECT_GT(tasks, 0u);

    const auto work = kernel->taskWork();
    EXPECT_FALSE(work.empty());
    u64 total = 0;
    for (u64 w : work) total += w;
    EXPECT_GT(total, 0u);
}

TEST_P(EveryKernel, CharacterizeProducesOpsAndMemoryTraffic)
{
    auto kernel = createKernel(GetParam());
    kernel->prepare(DatasetSize::kTiny);

    CacheSim cache;
    CharProbe probe(&cache);
    const u64 tasks = kernel->characterize(probe);
    EXPECT_GT(tasks, 0u);
    EXPECT_GT(probe.counts().total(), 0u);
    EXPECT_GT(probe.counts()[OpClass::kLoad], 0u);
    EXPECT_GT(cache.l1Stats().accesses, 0u);
}

TEST_P(EveryKernel, RunIsDeterministicAcrossThreadCounts)
{
    auto kernel = createKernel(GetParam());
    kernel->prepare(DatasetSize::kTiny);
    ThreadPool serial(1);
    const u64 expected = kernel->run(serial);
    for (unsigned threads : {2u, 4u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(kernel->run(pool), expected) << "threads=" << threads;
    }
}

INSTANTIATE_TEST_SUITE_P(Suite, EveryKernel,
                         ::testing::ValuesIn(kernelNames()),
                         [](const auto& info) {
                             std::string name = info.param;
                             std::replace(name.begin(), name.end(), '-',
                                          '_');
                             return name;
                         });

// The shared-cursor scheduler hands chunks to whichever rank claims
// first, so repeated runs on one reused pool see a different
// chunk-to-rank schedule each time; the result must not depend on it
// (nor on per-rank state left over from an earlier run).
TEST_P(EveryKernel, RunIsDeterministicAcrossSchedules)
{
    auto kernel = createKernel(GetParam());
    kernel->prepare(DatasetSize::kTiny);
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        const u64 first = kernel->run(pool);
        for (int rerun = 1; rerun <= 2; ++rerun) {
            EXPECT_EQ(kernel->run(pool), first)
                << "threads=" << threads << " rerun=" << rerun;
        }
    }
}

namespace {

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

} // namespace

TEST(KmerMerge, TreeMergeMatchesSerialFold)
{
    // Same per-thread tables merged two ways must hold the same
    // (kmer, count) entry set: the serial left-fold the kernel used to
    // do, and the parallel tree reduction. A non-power-of-two table
    // count exercises the odd-tail rounds; duplicate keys across
    // tables exercise the saturating-add path.
    constexpr unsigned kTables = 5;
    Rng rng(77);
    std::vector<std::unique_ptr<KmerCounter>> serial;
    std::vector<std::unique_ptr<KmerCounter>> tree;
    NullProbe probe;
    for (unsigned t = 0; t < kTables; ++t) {
        serial.push_back(std::make_unique<KmerCounter>(
            12, HashScheme::kRobinHood));
        tree.push_back(std::make_unique<KmerCounter>(
            12, HashScheme::kRobinHood));
        for (unsigned i = 0; i < 1500; ++i) {
            // Small key space => heavy cross-table overlap.
            const u64 kmer = rng.below(700);
            serial[t]->add(kmer, probe);
            tree[t]->add(kmer, probe);
        }
    }
    for (unsigned t = 1; t < kTables; ++t) {
        serial[0]->merge(*serial[t]);
    }
    ThreadPool pool(4);
    treeMergeKmerTables(tree, pool);
    EXPECT_EQ(sortedEntries(*serial[0]), sortedEntries(*tree[0]));
    EXPECT_EQ(serial[0]->size(), tree[0]->size());
    for (unsigned t = 1; t < kTables; ++t) {
        EXPECT_EQ(tree[t], nullptr); // consumed tables are released
    }
}

TEST(KmerMerge, TreeMergeSaturatesLikeSerial)
{
    std::vector<std::unique_ptr<KmerCounter>> tables;
    NullProbe probe;
    for (unsigned t = 0; t < 3; ++t) {
        tables.push_back(std::make_unique<KmerCounter>(
            8, HashScheme::kLinear));
        for (unsigned i = 0; i < 40'000; ++i) {
            tables[t]->add(7, probe); // one hot key, 3*40k > 65535
        }
    }
    ThreadPool pool(2);
    treeMergeKmerTables(tables, pool);
    EXPECT_EQ(tables[0]->count(7), KmerCounter::kMaxCount);
}

TEST(Imbalance, IrregularKernelsShowTaskImbalance)
{
    // The paper's Fig. 4: irregular kernels have max/mean per-task
    // work well above 1; phmm has the longest tail.
    auto phmm = createKernel("phmm");
    phmm->prepare(DatasetSize::kSmall);
    RunningStats stats;
    for (u64 w : phmm->taskWork()) {
        stats.add(static_cast<double>(w));
    }
    EXPECT_GT(stats.imbalance(), 3.0);

    auto grm = createKernel("grm");
    grm->prepare(DatasetSize::kTiny);
    RunningStats grm_stats;
    for (u64 w : grm->taskWork()) {
        grm_stats.add(static_cast<double>(w));
    }
    EXPECT_DOUBLE_EQ(grm_stats.imbalance(), 1.0); // regular kernel
}

} // namespace
} // namespace gb
