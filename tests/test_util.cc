/**
 * @file
 * Unit tests for the util module: RNG, stats, thread pool, tables.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "util/parse.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace gb {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10'000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<i64> seen;
    for (int i = 0; i < 5'000; ++i) {
        const i64 v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 20'000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20'000, 0.5, 0.02);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    RunningStats s;
    for (int i = 0; i < 50'000; ++i) s.add(rng.normal(5.0, 2.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, GeometricMean)
{
    Rng rng(15);
    double sum = 0;
    const double p = 0.25;
    for (int i = 0; i < 50'000; ++i) {
        sum += static_cast<double>(rng.geometric(p));
    }
    // Mean failures before success = (1-p)/p = 3.
    EXPECT_NEAR(sum / 50'000, 3.0, 0.15);
}

TEST(Rng, SplitIndependent)
{
    Rng parent(21);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (parent.next() == child.next());
    EXPECT_LT(same, 2);
}

TEST(RunningStats, Basics)
{
    RunningStats s;
    for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
    EXPECT_DOUBLE_EQ(s.imbalance(), 4.0 / 2.5);
}

TEST(RunningStats, MergeMatchesSequential)
{
    Rng rng(31);
    RunningStats all;
    RunningStats a;
    RunningStats b;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.normal(0, 1);
        all.add(v);
        (i % 2 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeEmpty)
{
    RunningStats a;
    RunningStats b;
    b.add(2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    RunningStats c;
    a.merge(c);
    EXPECT_EQ(a.count(), 1u);
}

TEST(Percentile, KnownValues)
{
    std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
}

TEST(Percentile, Empty)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, SingleSample)
{
    std::vector<double> v{7.5};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 7.5);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 7.5);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 7.5);
}

TEST(Percentile, TwoSamplesInterpolate)
{
    std::vector<double> v{20.0, 10.0}; // unsorted on purpose
    EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 20.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 15.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25), 12.5);
}

TEST(Percentile, UnsortedInputAndExtremes)
{
    std::vector<double> v{9, 1, 5, 3, 7, 2, 8, 4, 6, 10};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
    // nth_element reorders in place; the result set is unchanged.
    EXPECT_DOUBLE_EQ(
        std::accumulate(v.begin(), v.end(), 0.0), 55.0);
    EXPECT_DOUBLE_EQ(percentile(v, 90), 9.1);
}

TEST(LogHistogram, BinsPowersOfTwo)
{
    LogHistogram h(2.0);
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(1024);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.binOf(1), 0);
    EXPECT_EQ(h.binOf(2), 1);
    EXPECT_EQ(h.binOf(3), 1);
    EXPECT_EQ(h.binOf(1024), 10);
    u64 sum = 0;
    for (u64 c : h.counts()) sum += c;
    EXPECT_EQ(sum, 4u);
}

TEST(LogHistogram, SubUnitValuesClampToBinZero)
{
    LogHistogram h(2.0);
    h.add(0.25);
    h.add(0.0);
    EXPECT_EQ(h.binOf(0.5), 0);
    EXPECT_EQ(h.minBin(), 0);
    EXPECT_EQ(h.total(), 2u);
    EXPECT_EQ(h.counts()[0], 2u);
}

TEST(LogHistogram, MixedMagnitudesKeepTotal)
{
    LogHistogram h(10.0);
    for (double v : {1.0, 9.0, 10.5, 99.0, 2e6}) h.add(v);
    u64 sum = 0;
    for (u64 c : h.counts()) sum += c;
    EXPECT_EQ(sum, 5u);
    EXPECT_EQ(h.binOf(99.0), 1);
    // Exact powers of the base may fall either side of the boundary
    // (floating-point log); test an interior value instead.
    EXPECT_EQ(h.binOf(2e6), 6);
}

TEST(LogHistogram, QuantileOfEmptyIsZero)
{
    LogHistogram h(2.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(LogHistogram, QuantileInterpolatesWithinSingleBin)
{
    LogHistogram h(2.0);
    for (int i = 0; i < 4; ++i) h.add(1.0); // all in bin 0 = [1, 2)
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);  // bin lower edge
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);  // uniform-in-bin midpoint
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);  // bin upper edge
    // Out-of-range q clamps rather than extrapolating.
    EXPECT_DOUBLE_EQ(h.quantile(-1.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(2.0), 2.0);
}

TEST(LogHistogram, QuantileInterpolatesAcrossBins)
{
    LogHistogram h(2.0);
    for (double v : {1.0, 2.0, 4.0, 8.0}) h.add(v); // bins 0..3, 1 each
    // target 2.4 samples: 1 in bin 0, 1 in bin 1, then 0.4 of bin 2's
    // single sample -> 4 + 0.4 * (8 - 4).
    EXPECT_DOUBLE_EQ(h.quantile(0.6), 5.6);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.0); // exactly exhausts bin 1
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 16.0); // top edge of last bin
}

TEST(LogHistogram, MergeMatchesCombinedStream)
{
    // Different magnitude ranges so the merge has to extend the bin
    // range on both sides of the destination.
    const std::vector<double> a{100.0, 300.0, 5000.0};
    const std::vector<double> b{0.5, 3.0, 7.0, 20.0};
    LogHistogram ha(2.0), hb(2.0), combined(2.0);
    for (double v : a) { ha.add(v); combined.add(v); }
    for (double v : b) { hb.add(v); combined.add(v); }
    ha.merge(hb);
    EXPECT_EQ(ha.total(), combined.total());
    EXPECT_EQ(ha.minBin(), combined.minBin());
    EXPECT_EQ(ha.counts(), combined.counts());
    for (double q : {0.1, 0.5, 0.9, 0.99}) {
        EXPECT_DOUBLE_EQ(ha.quantile(q), combined.quantile(q)) << q;
    }
}

TEST(LogHistogram, MergeEmptyEdgeCases)
{
    LogHistogram h(2.0);
    h.add(3.0);
    LogHistogram empty(2.0);
    h.merge(empty); // no-op
    EXPECT_EQ(h.total(), 1u);
    empty.merge(h); // adopts
    EXPECT_EQ(empty.total(), 1u);
    EXPECT_EQ(empty.counts(), h.counts());
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), h.quantile(0.5));
}

TEST(LogHistogram, MergeRejectsBaseMismatch)
{
    LogHistogram a(2.0);
    LogHistogram b(1.15);
    a.add(1.0);
    b.add(1.0);
    EXPECT_THROW(a.merge(b), InputError);
}

TEST(Format, FixedPrecision)
{
    EXPECT_EQ(formatF(1.23456, 2), "1.23");
    EXPECT_EQ(formatF(-0.5, 1), "-0.5");
    EXPECT_EQ(formatF(2.0, 0), "2");
}

TEST(ThreadPool, RunsAllIndices)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](u64 i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls)
{
    ThreadPool pool(3);
    for (int round = 0; round < 10; ++round) {
        std::atomic<u64> sum{0};
        pool.parallelFor(100, [&](u64 i) { sum.fetch_add(i); });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

TEST(ThreadPool, SingleThreadFallback)
{
    ThreadPool pool(1);
    u64 sum = 0; // no atomics needed with one thread
    pool.parallelFor(100, [&](u64 i) { sum += i; });
    EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, PropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(100,
                         [&](u64 i) {
                             if (i == 37) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // Pool still usable afterwards.
    std::atomic<u64> n{0};
    pool.parallelFor(10, [&](u64) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 10u);
}

TEST(ThreadPool, BackToBackAfterThrow)
{
    // Stress the generation handshake: a parallelFor that throws must
    // leave the pool immediately reusable, round after round.
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        EXPECT_THROW(
            pool.parallelFor(200,
                             [&](u64 i) {
                                 if (i % 50 == 7) {
                                     throw std::runtime_error("boom");
                                 }
                             }),
            std::runtime_error);
        std::atomic<u64> sum{0};
        pool.parallelFor(100, [&](u64 i) { sum.fetch_add(i); });
        EXPECT_EQ(sum.load(), 4950u) << "round " << round;
    }
}

TEST(ThreadPool, TelemetryConsistency)
{
    // Scheduler-telemetry invariant: across ranks, claimed chunks sum
    // to ceilDiv(n, grain) and executed indices sum to n.
    ThreadPool pool(4);
    const u64 n = 1000;
    const u64 grain = 7;
    pool.resetTelemetry();
    pool.parallelFor(n, [](u64) {}, grain);
    const auto ranks = pool.telemetry();
    ASSERT_EQ(ranks.size(), 4u);
    u64 chunks = 0;
    u64 indices = 0;
    for (const auto& t : ranks) {
        chunks += t.chunks;
        indices += t.indices;
        EXPECT_GE(t.busy_seconds, 0.0);
        EXPECT_GE(t.wait_seconds, 0.0);
        EXPECT_EQ(t.jobs, 1u);
    }
    EXPECT_EQ(chunks, ceilDiv(n, grain));
    EXPECT_EQ(indices, n);
}

TEST(ThreadPool, TelemetryFastPathMatchesScheduledAccounting)
{
    // The 1-thread inline path must keep the same chunk invariant so
    // consumers (bench_fig4/fig7) need no special cases.
    ThreadPool pool(1);
    pool.resetTelemetry();
    pool.parallelFor(10, [](u64) {}, 3);
    const auto ranks = pool.telemetry();
    ASSERT_EQ(ranks.size(), 1u);
    EXPECT_EQ(ranks[0].chunks, ceilDiv(u64{10}, u64{3}));
    EXPECT_EQ(ranks[0].indices, 10u);
    EXPECT_EQ(ranks[0].jobs, 1u);
}

TEST(ThreadPool, TelemetryAccumulatesAndResets)
{
    ThreadPool pool(2);
    pool.resetTelemetry();
    pool.parallelFor(64, [](u64) {});
    pool.parallelFor(64, [](u64) {});
    u64 indices = 0;
    u64 jobs = 0;
    for (const auto& t : pool.telemetry()) {
        indices += t.indices;
        jobs += t.jobs;
    }
    EXPECT_EQ(indices, 128u);
    EXPECT_EQ(jobs, 4u); // 2 ranks x 2 jobs
    pool.resetTelemetry();
    for (const auto& t : pool.telemetry()) {
        EXPECT_EQ(t.indices, 0u);
        EXPECT_EQ(t.chunks, 0u);
        EXPECT_EQ(t.jobs, 0u);
        EXPECT_DOUBLE_EQ(t.busy_seconds, 0.0);
        EXPECT_DOUBLE_EQ(t.wait_seconds, 0.0);
    }
}

TEST(ThreadPool, ZeroIterations)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(0, [&](u64) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, GrainLargerThanN)
{
    ThreadPool pool(4);
    std::atomic<u64> n{0};
    pool.parallelFor(5, [&](u64) { n.fetch_add(1); }, 100);
    EXPECT_EQ(n.load(), 5u);
}

TEST(ThreadPool, SchedulerStressBothPolicies)
{
    // Randomized scheduler stress (docs/threading.md): every
    // (threads, n, grain) combination must execute each index exactly
    // once — including skewed bodies whose heavy indices make ranks
    // finish at different times — and satisfy the telemetry
    // invariants: indices sums to n and the scheduled path claims
    // exactly ceilDiv(n, grain) chunks.
    Rng rng(20260808);
    for (unsigned threads : {2u, 4u, 8u}) {
        ThreadPool pool(threads);
        const u64 sizes[] = {0, 1, threads - 1, 10000};
        for (const u64 n : sizes) {
            for (const u64 grain : {u64{1}, u64{8}, u64{64}}) {
                // Skewed work: a random ~1% of indices spin ~300x
                // longer.
                const u64 heavy_stride = n ? 1 + rng.below(99) : 1;
                std::vector<std::atomic<int>> hits(n);
                pool.resetTelemetry();
                pool.parallelFor(
                    n,
                    [&](u64 i) {
                        hits[i].fetch_add(1);
                        volatile u64 h = i;
                        const u64 spins =
                            i % 100 == heavy_stride ? 300 : 1;
                        for (u64 s = 0; s < spins; ++s) {
                            h = h * 0x9e3779b97f4a7c15ULL + s;
                        }
                    },
                    grain);
                const std::string ctx =
                    "threads=" + std::to_string(threads) +
                    " n=" + std::to_string(n) +
                    " grain=" + std::to_string(grain);
                for (u64 i = 0; i < n; ++i) {
                    ASSERT_EQ(hits[i].load(), 1)
                        << ctx << " index " << i;
                }
                u64 indices = 0;
                u64 chunks = 0;
                for (const auto& t : pool.telemetry()) {
                    indices += t.indices;
                    chunks += t.chunks;
                }
                EXPECT_EQ(indices, n) << ctx;
                if (n > 0) {
                    EXPECT_EQ(chunks, ceilDiv(n, grain)) << ctx;
                }
            }
        }
    }
}

TEST(ThreadPool, SchedulerStressThrowingBodies)
{
    // First-exception-wins, no deadlock, immediate reuse — random
    // throwing index and grain each round.
    Rng rng(977);
    ThreadPool pool(4);
    for (int round = 0; round < 30; ++round) {
        const u64 n = 2000;
        const u64 bad = rng.below(n);
        try {
            pool.parallelFor(
                n,
                [&](u64 i) {
                    if (i == bad) {
                        throw std::runtime_error(
                            "boom@" + std::to_string(i));
                    }
                },
                1 + rng.below(16));
            FAIL() << "exception did not propagate";
        } catch (const std::runtime_error& e) {
            // First exception wins; with one throwing index the
            // winner is deterministic.
            EXPECT_EQ(std::string(e.what()),
                      "boom@" + std::to_string(bad));
        }
        // Pool must be immediately reusable after the drain.
        std::atomic<u64> count{0};
        pool.parallelFor(64, [&](u64) { count.fetch_add(1); });
        EXPECT_EQ(count.load(), 64u);
    }
}

TEST(ParseUnsigned, AcceptsWholeDecimalStrings)
{
    EXPECT_EQ(parseUnsigned("--threads", "0"), 0u);
    EXPECT_EQ(parseUnsigned("--threads", "8"), 8u);
    EXPECT_EQ(parseUnsigned("--threads", "4294967295"), 4294967295u);
    EXPECT_EQ(parseUnsigned("--threads", "1024", 0, kMaxThreads), 1024u);
}

TEST(ParseUnsigned, RejectsSignsAndGarbage)
{
    for (const char* text : {"-1", "+1", "", " 1", "1 ", "2x", "4x",
                             "x2", "1.5", "0x10"}) {
        EXPECT_THROW(parseUnsigned("--threads", text), InputError)
            << "'" << text << "'";
    }
    try {
        parseUnsigned("--threads", "2x");
        FAIL() << "2x accepted";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("--threads"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("'2x'"), std::string::npos)
            << e.what();
    }
}

TEST(ParseUnsigned, RejectsOverflowAndOutOfRange)
{
    EXPECT_THROW(parseUnsigned("--repeat", "4294967296"), InputError);
    EXPECT_THROW(parseUnsigned("--repeat", "99999999999999999999"),
                 InputError);
    EXPECT_THROW(parseUnsigned("--repeat", "0", 1), InputError);
    EXPECT_EQ(parseUnsigned("--repeat", "1", 1), 1u);
    EXPECT_THROW(parseUnsigned("--threads", "1025", 0, kMaxThreads),
                 InputError);
    try {
        parseUnsigned("--threads", "5000", 0, kMaxThreads);
        FAIL() << "5000 accepted";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("out of range"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ParseSeconds, AcceptsFiniteNonNegativeDecimals)
{
    EXPECT_EQ(parseSeconds("--wait-timeout", "0", 60), 0.0);
    EXPECT_EQ(parseSeconds("--wait-timeout", "5", 60), 5.0);
    EXPECT_EQ(parseSeconds("--wait-timeout", "2.5", 60), 2.5);
    EXPECT_EQ(parseSeconds("--wait-timeout", "1e1", 60), 10.0);
    EXPECT_EQ(parseSeconds("--wait-timeout", "60", 60), 60.0);
}

TEST(ParseSeconds, RejectsSignsGarbageAndNonFinite)
{
    for (const char* text : {"5x", "x5", "", " 5", "5 ", "-1", "-0", "+5",
                             "nan", "NaN", "inf", "-inf", "infinity",
                             "1e999", "0x10"}) {
        EXPECT_THROW(parseSeconds("--wait-timeout", text, 60), InputError)
            << "'" << text << "'";
    }
    try {
        parseSeconds("--wait-timeout", "5x", 60);
        FAIL() << "5x accepted";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("--wait-timeout"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("'5x'"), std::string::npos)
            << e.what();
    }
}

TEST(ParseSeconds, RejectsOutOfRange)
{
    EXPECT_THROW(parseSeconds("--wait-timeout", "60.5", 60), InputError);
    try {
        parseSeconds("--wait-timeout", "1e9", 86400);
        FAIL() << "1e9 accepted";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("out of range"),
                  std::string::npos)
            << e.what();
    }
}

TEST(RequireKnownName, AcceptsKnownAndSuggestsNearMiss)
{
    const std::vector<std::string> known = {"fmi", "bsw", "phmm"};
    EXPECT_NO_THROW(requireKnownName("unknown kernel", "bsw", known));
    try {
        requireKnownName("unknown kernel", "bwss", known);
        FAIL() << "expected InputError";
    } catch (const InputError& e) {
        EXPECT_STREQ(e.what(), "unknown kernel: bwss (did you mean bsw?)");
    }
    try {
        requireKnownName("unknown kernel", "nosuchkernel", known);
        FAIL() << "expected InputError";
    } catch (const InputError& e) {
        EXPECT_STREQ(e.what(), "unknown kernel: nosuchkernel");
    }
}

TEST(UnknownOption, SuggestsANearMiss)
{
    const std::vector<std::string> known = {"--size", "--threads",
                                            "--repeat"};
    EXPECT_EQ(unknownOption("--thread=2", known),
              "unknown option: --thread=2 (did you mean --threads?)");
    EXPECT_EQ(unknownOption("--szie", known),
              "unknown option: --szie (did you mean --size?)");
}

TEST(UnknownOption, StaysSilentOnAFarMiss)
{
    const std::vector<std::string> known = {"--size", "--threads",
                                            "--repeat"};
    EXPECT_EQ(unknownOption("--verbose=1", known),
              "unknown option: --verbose=1");
    EXPECT_EQ(unknownOption("--x", {}), "unknown option: --x");
}

TEST(Table, RendersAlignedColumns)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.newRow().cell("alpha").cellF(1.5, 1);
    t.newRow().cell("b").cell(42);
    const std::string s = t.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Format, Count)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(1000), "1,000");
    EXPECT_EQ(formatCount(1234567), "1,234,567");
}

} // namespace
} // namespace gb
