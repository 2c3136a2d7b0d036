/**
 * @file
 * Tests for the characterization substrate: probes, cache simulator
 * (with a brute-force LRU oracle), DRAM row model, top-down model and
 * SIMT model.
 */
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

#include "arch/cache_sim.h"
#include "arch/probe.h"
#include "arch/simt.h"
#include "arch/topdown.h"
#include "util/rng.h"

namespace gb {
namespace {

TEST(Probe, NullProbeCompilesAway)
{
    NullProbe probe;
    probe.op(OpClass::kIntAlu, 5);
    probe.load(nullptr, 8);
    probe.store(nullptr, 8);
    probe.branch(0, true);
    SUCCEED();
}

TEST(Probe, CharProbeTallies)
{
    CharProbe probe;
    probe.op(OpClass::kIntAlu, 5);
    probe.op(OpClass::kFpAlu, 2);
    int x = 0;
    probe.load(&x, 4);
    probe.load(&x, 64); // 64 B = two 32 B load ops
    probe.store(&x, 4);
    probe.branch(1, true);
    EXPECT_EQ(probe.counts()[OpClass::kIntAlu], 5u);
    EXPECT_EQ(probe.counts()[OpClass::kFpAlu], 2u);
    EXPECT_EQ(probe.counts()[OpClass::kLoad], 3u);
    EXPECT_EQ(probe.counts()[OpClass::kStore], 1u);
    EXPECT_EQ(probe.counts()[OpClass::kBranch], 1u);
    EXPECT_EQ(probe.counts().total(), 12u);
    EXPECT_EQ(probe.loadBytes(), 68u);
    EXPECT_NEAR(probe.counts().fraction(OpClass::kIntAlu), 5.0 / 12,
                1e-12);
}

TEST(Probe, CharProbeBranchPredictorLearns)
{
    CharProbe probe(nullptr);
    // Always-taken branch: at most a couple of cold mispredictions.
    for (int i = 0; i < 100; ++i) probe.branch(7, true);
    EXPECT_LE(probe.mispredicts(), 2u);
    // Alternating branch on another site: ~half mispredict.
    const u64 before = probe.mispredicts();
    for (int i = 0; i < 100; ++i) probe.branch(8, i % 2 == 0);
    EXPECT_GT(probe.mispredicts() - before, 30u);
}

// ---------------------------------------------------------------------
// Cache level vs a brute-force LRU oracle.

/** Naive fully-explicit LRU set-associative cache. */
class LruOracle
{
  public:
    LruOracle(u64 size, u32 assoc, u32 line)
        : sets_(size / line / assoc), assoc_(assoc), lines_(sets_)
    {
    }

    bool
    access(u64 line_addr)
    {
        auto& set = lines_[line_addr % sets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == line_addr) {
                set.erase(it);
                set.push_front(line_addr);
                return true;
            }
        }
        set.push_front(line_addr);
        if (set.size() > assoc_) set.pop_back();
        return false;
    }

  private:
    u64 sets_;
    u32 assoc_;
    std::vector<std::deque<u64>> lines_;
};

TEST(CacheLevel, MatchesLruOracle)
{
    CacheLevelConfig config{4096, 4, 64}; // 16 sets x 4 ways
    CacheLevel level(config);
    LruOracle oracle(4096, 4, 64);
    Rng rng(17);
    u64 hits = 0;
    for (int i = 0; i < 20'000; ++i) {
        // Mix of hot lines and random lines.
        const u64 line = rng.chance(0.5) ? rng.below(32)
                                         : rng.below(4096);
        bool dirty = false;
        u64 victim = 0;
        const bool hit = level.access(line, false, dirty, victim);
        const bool oracle_hit = oracle.access(line);
        ASSERT_EQ(hit, oracle_hit) << "access " << i;
        hits += hit;
    }
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(level.stats().accesses, 20'000u);
    EXPECT_EQ(level.stats().misses, 20'000u - hits);
}

TEST(CacheSim, SequentialStreamMostlyHitsAfterLineFill)
{
    CacheSim sim;
    // 4-byte sequential accesses: 1 miss per 16 accesses (64 B line).
    for (u64 i = 0; i < 16'384; ++i) {
        sim.access(0x10000 + i * 4, 4, false);
    }
    EXPECT_EQ(sim.l1Stats().accesses, 16'384u);
    EXPECT_EQ(sim.l1Stats().misses, 16'384u / 16);
    EXPECT_GT(sim.sequentialMissRate(), 0.95);
}

TEST(CacheSim, WorkingSetTiersMatchCapacities)
{
    auto missRateFor = [](u64 working_set) {
        CacheSim sim;
        Rng rng(3);
        // Warm up, then measure random accesses within the set.
        for (int pass = 0; pass < 2; ++pass) {
            for (int i = 0; i < 200'000; ++i) {
                const u64 addr = rng.below(working_set) & ~u64{3};
                sim.access(addr, 4, false);
            }
        }
        return sim;
    };
    // 16 KB: fits L1 -> tiny L1 miss rate.
    {
        const auto sim = missRateFor(16 * 1024);
        EXPECT_LT(sim.l1Stats().missRate(), 0.02);
    }
    // 128 KB: misses L1, fits L2.
    {
        const auto sim = missRateFor(128 * 1024);
        EXPECT_GT(sim.l1Stats().missRate(), 0.3);
        EXPECT_LT(sim.l2Stats().missRate(), 0.1);
    }
    // 64 MB: misses everything, DRAM traffic appears.
    {
        const auto sim = missRateFor(64 * 1024 * 1024);
        EXPECT_GT(sim.llcStats().missRate(), 0.5);
        EXPECT_GT(sim.dramStats().bytes, u64{1} << 20);
    }
}

TEST(CacheSim, DirtyEvictionsProduceWritebackTraffic)
{
    CacheSim sim;
    // Write a 64 MB region once: every line is dirtied and eventually
    // evicted, so DRAM bytes should approach 2x the region (fill +
    // writeback).
    const u64 region = 64 * 1024 * 1024;
    for (u64 addr = 0; addr < region; addr += 64) {
        sim.access(0x100000000ULL + addr, 64, true);
    }
    // Touch another region to flush the hierarchy.
    for (u64 addr = 0; addr < 16 * 1024 * 1024; addr += 64) {
        sim.access(0x900000000ULL + addr, 64, false);
    }
    EXPECT_GT(sim.dramStats().bytes, region + region / 2);
}

TEST(CacheSim, RowBufferDistinguishesStreamsFromRandom)
{
    CacheSim random_sim;
    Rng rng(5);
    for (int i = 0; i < 100'000; ++i) {
        random_sim.access(rng.next() % (u64{1} << 33), 4, false);
    }
    CacheSim stream_sim;
    for (u64 i = 0; i < 100'000; ++i) {
        stream_sim.access(0x200000000ULL + i * 64, 4, false);
    }
    EXPECT_GT(random_sim.dramStats().rowMissRate(), 0.8);
    EXPECT_LT(stream_sim.dramStats().rowMissRate(), 0.05);
}

TEST(CacheSim, AccessSpanningLinesCountsBoth)
{
    CacheSim sim;
    sim.access(60, 8, false); // crosses the line boundary at 64
    EXPECT_EQ(sim.l1Stats().accesses, 2u);
}

TEST(TopDown, MemoryBoundKernelAttribution)
{
    // Synthetic "kmer-cnt like" profile: random DRAM-missing loads.
    CacheSim sim;
    Rng rng(7);
    CharProbe probe(&sim);
    for (int i = 0; i < 50'000; ++i) {
        const u64 addr = rng.next() % (u64{1} << 32);
        probe.load(reinterpret_cast<const void*>(addr), 8);
        probe.op(OpClass::kIntAlu, 4);
    }
    const auto result =
        topDownAnalyze(probe.counts(), sim, probe.mispredicts());
    EXPECT_GT(result.backend_memory, 0.5);
    EXPECT_LT(result.retiring, 0.5);
    // Fractions sum to ~1.
    const double sum = result.retiring + result.frontend_bound +
                       result.bad_speculation +
                       result.backend_memory + result.backend_core;
    EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(TopDown, ComputeBoundKernelRetires)
{
    CacheSim sim;
    OpCounts counts;
    counts[OpClass::kVecAlu] = 1'000'000;
    counts[OpClass::kIntAlu] = 500'000;
    counts[OpClass::kLoad] = 100'000;
    const auto result = topDownAnalyze(counts, sim, 0);
    EXPECT_GT(result.retiring, 0.6);
    EXPECT_LT(result.backend_memory, 0.05);
}

TEST(TopDown, EmptyCountsAreSafe)
{
    CacheSim sim;
    const auto result = topDownAnalyze(OpCounts{}, sim, 0);
    EXPECT_DOUBLE_EQ(result.retiring, 0.0);
}

TEST(Simt, WarpEfficiencyMath)
{
    SimtModel model;
    model.step(32, 0);
    model.step(16, 0);
    model.step(32, 8);
    EXPECT_NEAR(model.stats().warpEfficiency(), 80.0 / 96.0, 1e-12);
    EXPECT_NEAR(model.stats().nonPredicatedEfficiency(),
                72.0 / 96.0, 1e-12);
    model.branch(false);
    model.branch(true);
    EXPECT_NEAR(model.stats().branchEfficiency(), 0.5, 1e-12);
}

TEST(Simt, CoalescingFullyPackedVsStrided)
{
    SimtModel model;
    // 32 lanes, 4 B each, consecutive: 4 segments, 128 useful bytes.
    std::vector<u64> packed(32);
    for (u32 i = 0; i < 32; ++i) packed[i] = 0x1000 + i * 4;
    model.memAccess(packed, 4, false);
    EXPECT_NEAR(model.stats().globalLoadEfficiency(), 1.0, 1e-12);

    SimtModel strided;
    // 32 lanes at 64 B stride: one segment each, 4/32 useful.
    std::vector<u64> sparse(32);
    for (u32 i = 0; i < 32; ++i) sparse[i] = 0x1000 + i * 64;
    strided.memAccess(sparse, 4, false);
    EXPECT_NEAR(strided.stats().globalLoadEfficiency(), 0.125,
                1e-12);
}

TEST(Simt, OccupancyLimits)
{
    // Warp-limited: 128-thread blocks, no shared/regs -> 16 blocks =
    // 64 warps -> occupancy 1.
    {
        SimtModel model;
        model.launch(10'000, 128, 0, 0);
        EXPECT_NEAR(model.stats().occupancy, 1.0, 1e-12);
    }
    // Shared-limited: 18 KB blocks on 96 KB SMs -> 5 blocks of 4
    // warps = 20/64 warps.
    {
        SimtModel model;
        model.launch(10'000, 128, 18 * 1024, 0);
        EXPECT_NEAR(model.stats().occupancy, 20.0 / 64.0, 1e-12);
    }
    // Register-limited: 36 regs x 128 threads -> 14 blocks -> 56/64.
    {
        SimtModel model;
        model.launch(10'000, 128, 0, 36);
        EXPECT_NEAR(model.stats().occupancy, 56.0 / 64.0, 1e-12);
    }
}

TEST(Simt, SmUtilizationTailEffect)
{
    // 1024-thread blocks = 32 warps, so 2 blocks reside per SM and a
    // wave is 60 blocks across the 30 SMs.
    SimtModel model;
    model.launch(60, 1024, 0, 0);
    EXPECT_NEAR(model.stats().sm_utilization, 1.0, 1e-12);

    SimtModel tail;
    // 61 blocks: the second wave keeps only 1/30 SMs busy.
    tail.launch(61, 1024, 0, 0);
    EXPECT_LT(tail.stats().sm_utilization, 0.6);
}

} // namespace
} // namespace gb
