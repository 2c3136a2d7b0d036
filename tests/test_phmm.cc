/**
 * @file
 * Tests for the PairHMM kernel: unscaled long-double oracle, float vs
 * double consistency, likelihood monotonicity, underflow fallback, and
 * the uninstrumented runPhmmTask (dispatched engine) against the
 * instrumented template at every dispatch level.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dbg/debruijn.h"
#include "io/dna.h"
#include "phmm/pairhmm.h"
#include "simd/simd.h"
#include "util/rng.h"

namespace gb {
namespace {

/** Unscaled, unoptimized forward oracle in long double. */
long double
oracleForward(const std::vector<u8>& read, const std::vector<u8>& quals,
              const std::vector<u8>& hap, const PhmmParams& params)
{
    const size_t m = read.size();
    const size_t n = hap.size();
    const long double gop = qualToErrorProb(params.gap_open_qual);
    const long double gcp = qualToErrorProb(params.gap_continue_qual);
    const long double mm = 1.0L - 2.0L * gop;
    const long double im = 1.0L - gcp;

    std::vector<std::vector<long double>> M(
        m + 1, std::vector<long double>(n + 1, 0.0L));
    auto I = M;
    auto D = M;
    for (size_t j = 0; j <= n; ++j) D[0][j] = 1.0L / n;

    for (size_t i = 1; i <= m; ++i) {
        const long double err = qualToErrorProb(quals[i - 1]);
        for (size_t j = 1; j <= n; ++j) {
            const bool match = read[i - 1] == hap[j - 1];
            const long double prior = match ? 1.0L - err : err / 3.0L;
            M[i][j] = prior * (M[i - 1][j - 1] * mm +
                               (I[i - 1][j - 1] + D[i - 1][j - 1]) * im);
            I[i][j] = M[i - 1][j] * gop + I[i - 1][j] * gcp;
            D[i][j] = M[i][j - 1] * gop + D[i][j - 1] * gcp;
        }
    }
    long double sum = 0.0L;
    for (size_t j = 1; j <= n; ++j) sum += M[m][j] + I[m][j];
    return sum;
}

std::vector<u8>
uniformQuals(size_t len, u8 q)
{
    return std::vector<u8>(len, q);
}

TEST(PairHmm, MatchesUnscaledOracle)
{
    Rng rng(41);
    for (int trial = 0; trial < 10; ++trial) {
        const size_t rlen = 10 + rng.below(30);
        const size_t hlen = rlen + rng.below(20);
        std::vector<u8> hap(hlen);
        for (auto& c : hap) c = static_cast<u8>(rng.below(4));
        std::vector<u8> read(hap.begin(),
                             hap.begin() + static_cast<i64>(rlen));
        for (auto& c : read) {
            if (rng.chance(0.1)) c = static_cast<u8>(rng.below(4));
        }
        std::vector<u8> quals(rlen);
        for (auto& q : quals) q = 20 + static_cast<u8>(rng.below(20));

        const auto result = pairHmmLogLikelihood(read, quals, hap);
        const long double oracle =
            oracleForward(read, quals, hap, PhmmParams{});
        EXPECT_NEAR(result.log10_likelihood,
                    static_cast<double>(std::log10(oracle)), 1e-3);
    }
}

TEST(PairHmm, PerfectMatchLikelihoodDominates)
{
    const auto hap = encodeDna("ACGTACGTACGTACGTACGT");
    const auto read = encodeDna("ACGTACGTAC");
    const auto mismatched = encodeDna("ACGTACGTTT");
    const auto quals = uniformQuals(10, 30);

    const double good =
        pairHmmLogLikelihood(read, quals, hap).log10_likelihood;
    const double bad =
        pairHmmLogLikelihood(mismatched, quals, hap).log10_likelihood;
    EXPECT_GT(good, bad);
}

TEST(PairHmm, MonotoneUnderAddedMismatches)
{
    Rng rng(42);
    std::vector<u8> hap(120);
    for (auto& c : hap) c = static_cast<u8>(rng.below(4));
    std::vector<u8> read(hap.begin(), hap.begin() + 80);
    const auto quals = uniformQuals(80, 25);

    double prev = pairHmmLogLikelihood(read, quals, hap)
                      .log10_likelihood;
    // Progressively corrupt bases; likelihood must not increase.
    for (int step = 0; step < 6; ++step) {
        const size_t pos = 5 + static_cast<size_t>(step) * 12;
        read[pos] = static_cast<u8>((read[pos] + 1) % 4);
        const double cur = pairHmmLogLikelihood(read, quals, hap)
                               .log10_likelihood;
        EXPECT_LT(cur, prev + 1e-9) << "step " << step;
        prev = cur;
    }
}

TEST(PairHmm, LikelihoodIsAProbability)
{
    Rng rng(43);
    for (int trial = 0; trial < 15; ++trial) {
        std::vector<u8> hap(30 + rng.below(100));
        std::vector<u8> read(10 + rng.below(60));
        for (auto& c : hap) c = static_cast<u8>(rng.below(4));
        for (auto& c : read) c = static_cast<u8>(rng.below(4));
        const auto quals = uniformQuals(read.size(), 30);
        const auto r = pairHmmLogLikelihood(read, quals, hap);
        EXPECT_LE(r.log10_likelihood, 0.0);
        EXPECT_TRUE(std::isfinite(r.log10_likelihood));
    }
}

TEST(PairHmm, LowQualityFlattensLikelihoodGap)
{
    // With very low base qualities a mismatch costs little.
    const auto hap = encodeDna("ACGTACGTACGTACGTACGTACGTACGT");
    auto read = encodeDna("ACGTACGTACGTAC");
    auto read_mm = read;
    read_mm[7] = static_cast<u8>((read_mm[7] + 1) % 4);

    const auto q_hi = uniformQuals(read.size(), 40);
    const auto q_lo = uniformQuals(read.size(), 5);

    const double gap_hi =
        pairHmmLogLikelihood(read, q_hi, hap).log10_likelihood -
        pairHmmLogLikelihood(read_mm, q_hi, hap).log10_likelihood;
    const double gap_lo =
        pairHmmLogLikelihood(read, q_lo, hap).log10_likelihood -
        pairHmmLogLikelihood(read_mm, q_lo, hap).log10_likelihood;
    EXPECT_GT(gap_hi, gap_lo);
    EXPECT_GT(gap_lo, 0.0);
}

TEST(PairHmm, DoubleFallbackOnLongDivergentRead)
{
    // A long read of persistent mismatches underflows the float path;
    // the kernel must fall back to double and return a finite value.
    std::vector<u8> hap(3000, 0);            // poly-A
    std::vector<u8> read(2500, 3);           // poly-T
    const auto quals = uniformQuals(read.size(), 40);
    const auto r = pairHmmLogLikelihood(read, quals, hap);
    EXPECT_TRUE(r.used_double);
    EXPECT_TRUE(std::isfinite(r.log10_likelihood));
    EXPECT_LT(r.log10_likelihood, -100.0);
}

TEST(PairHmm, FloatPathUsedForTypicalReads)
{
    Rng rng(44);
    std::vector<u8> hap(400);
    for (auto& c : hap) c = static_cast<u8>(rng.below(4));
    std::vector<u8> read(hap.begin() + 50, hap.begin() + 200);
    const auto quals = uniformQuals(read.size(), 30);
    const auto r = pairHmmLogLikelihood(read, quals, hap);
    EXPECT_FALSE(r.used_double);
}

TEST(PairHmm, InputValidation)
{
    const auto hap = encodeDna("ACGT");
    const auto read = encodeDna("AC");
    std::vector<u8> bad_quals{30};
    EXPECT_THROW(pairHmmLogLikelihood(read, bad_quals, hap), InputError);
    const std::vector<u8> empty;
    const std::vector<u8> q2{30, 30};
    EXPECT_THROW(pairHmmLogLikelihood(empty, empty, hap), InputError);
    EXPECT_THROW(pairHmmLogLikelihood(read, q2, empty), InputError);
}

TEST(PhmmTask, CellUpdateAccounting)
{
    PhmmTask task;
    task.reads.push_back({std::vector<u8>(10, 0),
                          std::vector<u8>(10, 30)});
    task.reads.push_back({std::vector<u8>(20, 1),
                          std::vector<u8>(20, 30)});
    task.haplotypes.push_back(std::vector<u8>(50, 0));
    task.haplotypes.push_back(std::vector<u8>(70, 2));
    EXPECT_EQ(task.cellUpdates(), 10u * 120 + 20u * 120);

    NullProbe probe;
    const auto matrix = runPhmmTask(task, PhmmParams{}, probe);
    EXPECT_EQ(matrix.size(), 4u);
}

TEST(PhmmTask, NullProbeRunMatchesProbeTemplateAtEveryLevel)
{
    // Pipeline-shaped task: a 400 bp window with two SNVs carried by
    // half the reads, 16 reads of 151 bp at Q30 with ~1% sequencing
    // errors, haplotypes re-assembled by the dbg kernel. A NullProbe
    // run takes the dispatched engine; it must equal the instrumented
    // template's matrix exactly, at every level the host can run.
    Rng rng(191);
    std::vector<u8> ref(400);
    for (auto& b : ref) b = static_cast<u8>(rng.below(4));
    std::vector<u8> alt = ref;
    alt[150] = static_cast<u8>((alt[150] + 1) % 4);
    alt[260] = static_cast<u8>((alt[260] + 2) % 4);
    AssemblyRegion region;
    region.reference = ref;
    PhmmTask task;
    for (int r = 0; r < 16; ++r) {
        const std::vector<u8>& src = r % 2 ? alt : ref;
        const u64 start = rng.below(400 - 151 + 1);
        std::vector<u8> read(src.begin() + start,
                             src.begin() + start + 151);
        for (auto& b : read) {
            if (rng.chance(0.01)) b = static_cast<u8>(rng.below(4));
        }
        region.reads.push_back(read);
        task.reads.push_back({read, std::vector<u8>(read.size(), 30)});
    }
    DbgStats stats;
    task.haplotypes = assembleRegion(region, DbgParams{}, stats);
    ASSERT_GE(task.haplotypes.size(), 2u)
        << "the SNVs no longer yield an alternate haplotype";

    CountingProbe counting;
    const auto oracle = runPhmmTask(task, PhmmParams{}, counting);
    ASSERT_EQ(oracle.size(), task.reads.size() * task.haplotypes.size());
    std::vector<simd::SimdLevel> levels{simd::SimdLevel::kScalar};
    const simd::SimdLevel best = simd::detectSimdLevel();
    if (best >= simd::SimdLevel::kSse4) {
        levels.push_back(simd::SimdLevel::kSse4);
    }
    if (best >= simd::SimdLevel::kAvx2) {
        levels.push_back(simd::SimdLevel::kAvx2);
    }
    for (const simd::SimdLevel level : levels) {
        simd::setSimdLevel(level);
        NullProbe probe;
        EXPECT_EQ(runPhmmTask(task, PhmmParams{}, probe), oracle)
            << simd::simdLevelName(level);
    }
    simd::resetSimdLevel();
}

} // namespace
} // namespace gb
