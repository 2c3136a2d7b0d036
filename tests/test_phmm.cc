/**
 * @file
 * Tests for the PairHMM kernel: unscaled long-double oracle, float vs
 * double consistency, likelihood monotonicity, underflow fallback,
 * input validation, the task call's float-skip gate at its edges, and
 * the uninstrumented runPhmmTask (dispatched engine, double pass first
 * after a fallback) against the instrumented template's matrix, bit
 * for bit, at every dispatch level.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
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

/** Levels this host can execute, scalar first. */
std::vector<simd::SimdLevel>
testableLevels()
{
    std::vector<simd::SimdLevel> levels{simd::SimdLevel::kScalar};
    const simd::SimdLevel best = simd::detectSimdLevel();
    if (best >= simd::SimdLevel::kSse4) {
        levels.push_back(simd::SimdLevel::kSse4);
    }
    if (best >= simd::SimdLevel::kAvx2) {
        levels.push_back(simd::SimdLevel::kAvx2);
    }
    return levels;
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

TEST(PairHmm, GapOpenBelowQ4IsRejected)
{
    // At Q3 gop = 0.501 and the match->match transition 1 - 2 gop is
    // negative; Q4 (gop = 0.398) is the lowest accepted quality.
    const auto hap = encodeDna("ACGTACGTACGT");
    const auto read = encodeDna("ACGTAC");
    const auto quals = uniformQuals(read.size(), 30);
    PhmmTask task;
    task.reads.push_back({read, quals});
    task.haplotypes.push_back(hap);
    for (const u8 q : {0, 1, 2, 3, 4}) {
        PhmmParams params;
        params.gap_open_qual = q;
        NullProbe probe;
        if (q < kMinGapOpenQual) {
            EXPECT_THROW(pairHmmLogLikelihood(read, quals, hap, params),
                         InputError) << "Q" << int{q};
            EXPECT_THROW(
                pairHmmLogLikelihood(read, quals, hap, params, probe),
                InputError) << "Q" << int{q};
            EXPECT_THROW(runPhmmTask(task, params, probe), InputError)
                << "Q" << int{q};
            // Rejected before any pair is looked at.
            EXPECT_THROW(runPhmmTask(PhmmTask{}, params, probe),
                         InputError) << "Q" << int{q};
        } else {
            const double l =
                pairHmmLogLikelihood(read, quals, hap, params)
                    .log10_likelihood;
            EXPECT_TRUE(std::isfinite(l));
            EXPECT_EQ(pairHmmLogLikelihood(read, quals, hap, params,
                                           probe)
                          .log10_likelihood,
                      l);
            EXPECT_EQ(runPhmmTask(task, params, probe),
                      std::vector<double>{l});
        }
    }
}

TEST(FloatSkipGate, SumEdge)
{
    // The gate fires at and below sum_d * 2^-500 = kMinAcceptedFloat /
    // 2, and not one ulp above.
    const double edge =
        kMinAcceptedFloat / 2 * (kDoubleInitialScale / kFloatInitialScale);
    const double above =
        std::nextafter(edge, std::numeric_limits<double>::infinity());
    EXPECT_TRUE(floatPassRuledOut(edge, 151, 400));
    EXPECT_FALSE(floatPassRuledOut(above, 151, 400));
    EXPECT_TRUE(floatPassRuledOut(
        std::nextafter(edge, 0.0), 151, 400));
    EXPECT_TRUE(floatPassRuledOut(0.0, 151, 400));
    EXPECT_TRUE(floatPassRuledOut(std::numeric_limits<double>::denorm_min(),
                                  1, 1));
    // Sums the float pass could still accept.
    EXPECT_FALSE(floatPassRuledOut(
        kMinAcceptedFloat * (kDoubleInitialScale / kFloatInitialScale),
        151, 400));
    EXPECT_FALSE(floatPassRuledOut(kDoubleInitialScale, 151, 400));
    EXPECT_FALSE(floatPassRuledOut(
        std::numeric_limits<double>::infinity(), 151, 400));
}

TEST(FloatSkipGate, LengthEdge)
{
    // The factor-2 margin covers float rounding up to m + n = 2^20.
    EXPECT_EQ(kFloatSkipMaxLength, u64{1} << 20);
    EXPECT_TRUE(floatPassRuledOut(0.0, 1, kFloatSkipMaxLength - 1));
    EXPECT_TRUE(floatPassRuledOut(0.0, kFloatSkipMaxLength - 1, 1));
    EXPECT_FALSE(floatPassRuledOut(0.0, 1, kFloatSkipMaxLength));
    EXPECT_FALSE(floatPassRuledOut(0.0, kFloatSkipMaxLength, 1));
    EXPECT_FALSE(floatPassRuledOut(0.0, kFloatSkipMaxLength,
                                   kFloatSkipMaxLength));
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

    CharProbe counting;
    const auto oracle = runPhmmTask(task, PhmmParams{}, counting);
    ASSERT_EQ(oracle.size(), task.reads.size() * task.haplotypes.size());
    for (const simd::SimdLevel level : testableLevels()) {
        simd::setSimdLevel(level);
        NullProbe probe;
        EXPECT_EQ(runPhmmTask(task, PhmmParams{}, probe), oracle)
            << simd::simdLevelName(level);
    }
    simd::resetSimdLevel();
}

/**
 * The task call against the template's matrix at every level: equal
 * likelihood bits in every cell. Returns the template's per-pair
 * used_double flags, reads outer.
 */
std::vector<bool>
expectTaskMatchesTemplate(const PhmmTask& task, const std::string& label)
{
    std::vector<double> oracle;
    std::vector<bool> fell_back;
    NullProbe probe;
    for (const auto& read : task.reads) {
        for (const auto& hap : task.haplotypes) {
            const PhmmResult r = pairHmmLogLikelihood(
                read.bases, read.quals, hap, PhmmParams{}, probe);
            oracle.push_back(r.log10_likelihood);
            fell_back.push_back(r.used_double);
        }
    }
    EXPECT_EQ(runPhmmTask<NullProbe>(task, PhmmParams{}, probe), oracle);
    for (const simd::SimdLevel level : testableLevels()) {
        simd::setSimdLevel(level);
        const auto got = runPhmmTask(task, PhmmParams{}, probe);
        simd::resetSimdLevel();
        EXPECT_EQ(got.size(), oracle.size()) << label;
        if (got.size() != oracle.size()) continue;
        for (size_t k = 0; k < got.size(); ++k) {
            EXPECT_EQ(std::bit_cast<u64>(got[k]),
                      std::bit_cast<u64>(oracle[k]))
                << label << ", level " << simd::simdLevelName(level)
                << ", pair " << k << ": " << got[k] << " vs "
                << oracle[k];
        }
    }
    return fell_back;
}

/** Random bases. */
std::vector<u8>
randomBases(size_t len, Rng& rng)
{
    std::vector<u8> out(len);
    for (auto& b : out) b = static_cast<u8>(rng.below(4));
    return out;
}

/**
 * A Q30 151-bp read from `hap` that starts at `start` (negative: it
 * hangs off the left edge) with 1% substitutions; bases off the
 * haplotype are random.
 */
PhmmRead
windowRead(const std::vector<u8>& hap, i64 start, Rng& rng)
{
    PhmmRead read;
    for (i64 k = start; k < start + 151; ++k) {
        const bool inside = k >= 0 && k < static_cast<i64>(hap.size());
        u8 b = inside ? hap[static_cast<size_t>(k)]
                      : static_cast<u8>(rng.below(4));
        if (inside && rng.chance(0.01)) b = static_cast<u8>(rng.below(4));
        read.bases.push_back(b);
    }
    read.quals.assign(read.bases.size(), 30);
    return read;
}

TEST(PhmmTask, FallbackHeavyWindowTasksMatchTemplate)
{
    // The pipeline's phmm stage: a 400-bp window and an SNV haplotype,
    // reads hanging 1-150 bp off either edge. Nearly every pair falls
    // back, so the task call runs the double pass first and skips
    // most float passes.
    Rng rng(192);
    for (int t = 0; t < 3; ++t) {
        PhmmTask task;
        task.haplotypes.push_back(randomBases(400, rng));
        task.haplotypes.push_back(task.haplotypes[0]);
        task.haplotypes[1][200] =
            static_cast<u8>((task.haplotypes[1][200] + 1) % 4);
        for (i64 overhang = 1; overhang <= 150; overhang += 7) {
            task.reads.push_back(
                windowRead(task.haplotypes[0], -overhang, rng));
            task.reads.push_back(
                windowRead(task.haplotypes[0], 400 - 151 + overhang, rng));
        }
        const auto fell_back =
            expectTaskMatchesTemplate(task, "window task " +
                                                std::to_string(t));
        u64 fallbacks = 0;
        for (const bool f : fell_back) fallbacks += f;
        EXPECT_GT(fallbacks * 2, fell_back.size())
            << "the window task no longer falls back on most pairs";
    }
}

TEST(PhmmTask, AlternatingFallbacksMatchTemplate)
{
    // Overhanging and contained reads alternate, so after every
    // fallback the next pair runs double first, the gate misses, and
    // the float result must still be returned.
    Rng rng(193);
    PhmmTask task;
    task.haplotypes.push_back(randomBases(400, rng));
    for (int r = 0; r < 24; ++r) {
        const i64 start = r % 2 ? static_cast<i64>(rng.below(250))
                                : -40 - static_cast<i64>(rng.below(100));
        task.reads.push_back(windowRead(task.haplotypes[0], start, rng));
    }
    const auto fell_back = expectTaskMatchesTemplate(task, "alternating");
    u64 misses = 0;
    for (size_t k = 1; k < fell_back.size(); ++k) {
        misses += fell_back[k - 1] && !fell_back[k];
    }
    EXPECT_GE(misses, 10u)
        << "too few float-accepted pairs follow a fallback";
}

TEST(PhmmTask, PairsJustAboveTheGateRunTheFloatPass)
{
    // Pairs whose scaled double sum lies in [thr / 2, thr] (thr =
    // kMinAcceptedFloat): the gate does not rule their float pass out,
    // so it must run, and float-first's answer must come back. Each
    // follows a fallback pair, so the gate is asked every time. The
    // pairs are found by a search over overhang and overhang quality.
    Rng rng(194);
    const std::vector<u8> hap = randomBases(120, rng);
    PhmmRead fallback{randomBases(100, rng), uniformQuals(100, 40)};
    PhmmTask task;
    task.haplotypes.push_back(hap);
    const double lo = kMinAcceptedFloat / 2;
    const double hi = kMinAcceptedFloat;
    u64 found = 0;
    for (u64 overhang = 40; overhang <= 90 && found < 12; ++overhang) {
        for (u8 q = 10; q <= 40 && found < 12; ++q) {
            PhmmRead read;
            read.bases.assign(hap.begin() + 30, hap.begin() + 90);
            const auto tail = randomBases(overhang, rng);
            read.bases.insert(read.bases.end(), tail.begin(), tail.end());
            read.quals = uniformQuals(60, 30);
            read.quals.resize(read.bases.size(), q);
            NullProbe probe;
            u64 cells = 0;
            const double scaled =
                detail::forwardScaled<double>(read.bases, read.quals, hap,
                                              PhmmParams{},
                                              kDoubleInitialScale, cells,
                                              probe) *
                (kFloatInitialScale / kDoubleInitialScale);
            if (scaled >= lo && scaled <= hi) {
                task.reads.push_back(fallback);
                task.reads.push_back(std::move(read));
                ++found;
            }
        }
    }
    ASSERT_GE(found, 4u) << "the search found too few pairs in range";
    const auto fell_back = expectTaskMatchesTemplate(task, "gate edge");
    for (size_t k = 0; k < fell_back.size(); k += 2) {
        EXPECT_TRUE(fell_back[k]) << "pair " << k << " did not fall back";
    }
}

} // namespace
} // namespace gb
