/**
 * @file
 * Suite-level tests: every kernel prepares, runs, characterizes and
 * reports task work through the public API, and the measurement path
 * (core/measure) records what the drivers report.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "arch/cache_sim.h"
#include "core/benchmark.h"
#include "core/kernels.h"
#include "core/measure.h"
#include "trace/trace.h"
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

TEST(Registry, UnknownKernelSuggestsNearest)
{
    try {
        createKernel("fmii");
        FAIL() << "expected InputError";
    } catch (const InputError& e) {
        EXPECT_STREQ(e.what(), "unknown kernel: fmii (did you mean fmi?)");
    }
}

TEST(Registry, DatasetSizeRoundTrip)
{
    for (DatasetSize size : {DatasetSize::kTiny, DatasetSize::kSmall,
                             DatasetSize::kLarge}) {
        EXPECT_EQ(parseDatasetSize(datasetSizeName(size)), size);
    }
    EXPECT_STREQ(datasetSizeName(DatasetSize::kTiny), "tiny");
    EXPECT_STREQ(datasetSizeName(DatasetSize::kSmall), "small");
    EXPECT_STREQ(datasetSizeName(DatasetSize::kLarge), "large");
    EXPECT_THROW(parseDatasetSize("huge"), InputError);
    EXPECT_THROW(parseDatasetSize(""), InputError);
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

// The cache simulator only adds modelling: a CharProbe without one
// counts the same operations, bytes and mispredictions.
TEST_P(EveryKernel, CacheSimLeavesCountsUnchanged)
{
    auto kernel = createKernel(GetParam());
    kernel->prepare(DatasetSize::kTiny);

    CharProbe plain;
    const u64 tasks = kernel->characterize(plain);
    CacheSim cache;
    CharProbe modelled(&cache);
    EXPECT_EQ(kernel->characterize(modelled), tasks);
    EXPECT_EQ(modelled.counts().by_class, plain.counts().by_class);
    EXPECT_EQ(modelled.loadBytes(), plain.loadBytes());
    EXPECT_EQ(modelled.storeBytes(), plain.storeBytes());
    EXPECT_EQ(modelled.mispredicts(), plain.mispredicts());
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

TEST(Accessors, ReturnThePreparedDataAndRejectOtherKernels)
{
    auto prepared = [](const char* name) {
        auto kernel = createKernel(name);
        kernel->prepare(DatasetSize::kTiny);
        return kernel;
    };

    const auto bsw = prepared("bsw");
    const auto pairs = bswPairs(*bsw);
    EXPECT_EQ(pairs.size(), 200u);
    EXPECT_TRUE(std::is_sorted(
        pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
            return a.query.size() < b.query.size();
        }));

    const auto kmer = prepared("kmer-cnt");
    const KmerCntInput kmer_input = kmerCntInput(*kmer);
    EXPECT_EQ(kmer_input.capacity_log2, 19u);
    EXPECT_FALSE(kmer_input.reads.empty());

    // chain's task work is the size of each anchor set.
    const auto chain = prepared("chain");
    const auto anchor_sets = chainAnchorSets(*chain);
    ASSERT_EQ(anchor_sets.size(), 20u);
    const auto work = chain->taskWork();
    for (size_t i = 0; i < anchor_sets.size(); ++i) {
        EXPECT_EQ(anchor_sets[i].size(), work[i]) << i;
    }

    const auto abea = prepared("abea");
    const AbeaInput abea_input = abeaInput(*abea);
    EXPECT_EQ(abea_input.model.k(), 6u);
    ASSERT_EQ(abea_input.reads.size(), 5u);
    for (const AbeaRead& read : abea_input.reads) {
        EXPECT_FALSE(read.ref.empty());
        EXPECT_FALSE(read.events.empty());
    }

    const auto nn_variant = prepared("nn-variant");
    EXPECT_FALSE(nnVariantFeatures(*nn_variant).empty());
    const auto nn_base = prepared("nn-base");
    EXPECT_EQ(nnBaseChunks(*nn_base).size(), 2u);

    const auto other = createKernel("grm");
    EXPECT_THROW(bswPairs(*other), InputError);
    EXPECT_THROW(kmerCntInput(*other), InputError);
    EXPECT_THROW(chainAnchorSets(*other), InputError);
    EXPECT_THROW(abeaInput(*other), InputError);
    EXPECT_THROW(nnVariantFeatures(*other), InputError);
    EXPECT_THROW(nnBaseChunks(*other), InputError);
    EXPECT_THROW(bswPairs(*chain), InputError);
}

// ---------------------------------------------------------------------
// Measurement path

/**
 * Fake kernel: run number r (0-based) sleeps sleep_ms[r] and returns
 * 10 * (r + 1) tasks; the 1-based call `throw_on` throws (0 = never).
 */
class FakeKernel : public Benchmark
{
  public:
    explicit FakeKernel(std::vector<int> sleep_ms, unsigned throw_on = 0)
        : sleep_ms_(std::move(sleep_ms)), throw_on_(throw_on)
    {
        info_.name = "fake";
    }

    const Info& info() const override { return info_; }

    void
    prepare(DatasetSize) override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    u64
    run(ThreadPool&) override
    {
        const unsigned r = runs_++;
        if (runs_ == throw_on_) throw InputError("fake run failed");
        std::this_thread::sleep_for(
            std::chrono::milliseconds(sleep_ms_.at(r)));
        return 10 * (r + 1);
    }

    u64 characterize(CharProbe&) override { return 0; }
    std::vector<u64> taskWork() override { return {1}; }

  private:
    Info info_;
    std::vector<int> sleep_ms_;
    unsigned throw_on_;
    unsigned runs_ = 0;
};

TEST(Measure, RepeatsRecordSecondsBestAndLastTasks)
{
    // The middle repeat is 20x shorter than its neighbours, so it is
    // the best one on any host.
    FakeKernel kernel({20, 1, 20});
    ThreadPool pool(1);
    Measurement m;
    measurePrepare(kernel, DatasetSize::kTiny, m);
    EXPECT_GT(m.prepare_seconds, 0.0);
    measureRepeats(kernel, pool, 3, m);
    ASSERT_EQ(m.repeat_seconds.size(), 3u);
    for (double seconds : m.repeat_seconds) EXPECT_GT(seconds, 0.0);
    EXPECT_EQ(m.bestSeconds(), m.repeat_seconds[1]);
    EXPECT_EQ(m.bestSeconds(),
              *std::min_element(m.repeat_seconds.begin(),
                                m.repeat_seconds.end()));
    EXPECT_DOUBLE_EQ(m.totalSeconds(),
                     std::accumulate(m.repeat_seconds.begin(),
                                     m.repeat_seconds.end(), 0.0));
    EXPECT_EQ(m.tasks, 30u); // the last repeat's count
}

TEST(Measure, ThrowingRepeatKeepsCompletedRepeats)
{
    FakeKernel kernel({1, 1, 1, 1}, 3);
    ThreadPool pool(1);
    Measurement m;
    EXPECT_THROW(measureRepeats(kernel, pool, 4, m), InputError);
    ASSERT_EQ(m.repeat_seconds.size(), 2u);
    EXPECT_EQ(m.tasks, 20u);
    EXPECT_EQ(m.bestSeconds(),
              std::min(m.repeat_seconds[0], m.repeat_seconds[1]));
}

TEST(Measure, ThrowingFirstRepeatLeavesZeroBest)
{
    FakeKernel kernel({1, 1}, 1);
    ThreadPool pool(1);
    Measurement m;
    EXPECT_THROW(measureRepeats(kernel, pool, 2, m), InputError);
    EXPECT_TRUE(m.repeat_seconds.empty());
    EXPECT_EQ(m.bestSeconds(), 0.0);
    EXPECT_EQ(m.totalSeconds(), 0.0);
    EXPECT_EQ(m.tasks, 0u);
}

TEST(Measure, CounterSampleOnlyWithCounters)
{
    ThreadPool pool(2);
    FakeKernel plain({1});
    Measurement without;
    measureRepeats(plain, pool, 1, without);
    EXPECT_FALSE(without.best_sample.available);
    EXPECT_LT(without.best_sample.cycles, 0.0);

    // With counters the best repeat carries the pooled reading, which
    // degrades exactly as the counters do on this host.
    FakeKernel counted({1, 1});
    metrics::PooledCounters counters(pool);
    Measurement with;
    measureRepeats(counted, pool, 2, with, &counters);
    EXPECT_EQ(with.best_sample.available, counters.available());
    EXPECT_EQ(with.best_sample.unavailable_reason,
              counters.unavailableReason());
}

TEST(Measure, SpansAreNamedPerKernelAndRepeat)
{
    FakeKernel kernel({1, 1});
    ThreadPool pool(1);
    Measurement m;
    trace::start();
    measurePrepare(kernel, DatasetSize::kTiny, m);
    measureRepeats(kernel, pool, 2, m);
    trace::stop();

    std::vector<std::string> names;
    std::vector<u64> repeat_args;
    for (const auto& ev : trace::snapshot()) {
        if (ev.category != trace::Category::kKernel) continue;
        EXPECT_FALSE(ev.instant);
        names.push_back(ev.name);
        if (ev.name == "repeat:fake") repeat_args.push_back(ev.arg);
    }
    EXPECT_EQ(names, (std::vector<std::string>{
                         "prepare:fake", "repeat:fake", "repeat:fake"}));
    EXPECT_EQ(repeat_args, (std::vector<u64>{0, 1}));
}

} // namespace
} // namespace gb
