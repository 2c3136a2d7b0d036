/**
 * @file
 * Tests for the gb::simd execution engine: dispatch-level plumbing,
 * scalar/SIMD equivalence for one-pair banded-SW (bandedSw() equal to
 * bandedSwScalar() in every SwResult field at every dispatch level,
 * over random pair mixes, band widths, z-drops, long pairs, past-i16
 * parameters and global mode), PairHMM (the
 * dispatched pairHmmLogLikelihood bit-identical to the scalar template
 * in likelihood, used_double and cell count, float and double passes)
 * and the f32 micro-GEMM (bit-identical to its scalar triple loop for
 * every operand layout). The SMEM search's level equivalence is in
 * test_index.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "align/banded_sw.h"
#include "arch/probe.h"
#include "phmm/pairhmm.h"
#include "simd/abea_engine.h"
#include "simd/bsw_engine.h"
#include "simd/chain_engine.h"
#include "simd/f32_engine.h"
#include "simd/phmm_engine.h"
#include "simd/poa_engine.h"
#include "simd/simd.h"
#include "util/rng.h"

namespace gb {
namespace {

/** Restores the process-global dispatch level on scope exit. */
struct LevelGuard
{
    ~LevelGuard() { simd::resetSimdLevel(); }
};

/** Levels this host can actually execute (always includes scalar). */
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

TEST(SimdDispatch, ParseAcceptsKnownNames)
{
    EXPECT_EQ(simd::parseSimdLevel("scalar"), simd::SimdLevel::kScalar);
    EXPECT_EQ(simd::parseSimdLevel("sse4"), simd::SimdLevel::kSse4);
    EXPECT_EQ(simd::parseSimdLevel("sse4.2"), simd::SimdLevel::kSse4);
    EXPECT_EQ(simd::parseSimdLevel("sse42"), simd::SimdLevel::kSse4);
    EXPECT_EQ(simd::parseSimdLevel("avx2"), simd::SimdLevel::kAvx2);
    EXPECT_FALSE(simd::parseSimdLevel("avx512").has_value());
    EXPECT_FALSE(simd::parseSimdLevel("").has_value());
}

TEST(SimdDispatch, NamesRoundTrip)
{
    for (const simd::SimdLevel level :
         {simd::SimdLevel::kScalar, simd::SimdLevel::kSse4,
          simd::SimdLevel::kAvx2}) {
        EXPECT_EQ(simd::parseSimdLevel(simd::simdLevelName(level)),
                  level);
    }
}

TEST(SimdDispatch, SetLevelClampsToDetected)
{
    LevelGuard guard;
    const simd::SimdLevel best = simd::detectSimdLevel();
    simd::setSimdLevel(simd::SimdLevel::kAvx2);
    EXPECT_LE(simd::activeSimdLevel(), best);
    simd::setSimdLevel(simd::SimdLevel::kScalar);
    EXPECT_EQ(simd::activeSimdLevel(), simd::SimdLevel::kScalar);
}

TEST(SimdDispatch, UnknownEnvLevelIsRejected)
{
    // GB_SIMD_LEVEL is the one scalar/SIMD switch, so a typo must not
    // fall back to the detected best level.
    const char* saved = std::getenv("GB_SIMD_LEVEL");
    const std::string restore = saved ? saved : "";
    ::setenv("GB_SIMD_LEVEL", "scaler", 1);
    try {
        simd::resetSimdLevel();
        ADD_FAILURE() << "GB_SIMD_LEVEL=scaler was accepted";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("scalar|sse4|avx2"),
                  std::string::npos)
            << e.what();
    }
    ::setenv("GB_SIMD_LEVEL", "scalar", 1);
    simd::resetSimdLevel();
    EXPECT_EQ(simd::activeSimdLevel(), simd::SimdLevel::kScalar);

    if (saved) {
        ::setenv("GB_SIMD_LEVEL", restore.c_str(), 1);
    } else {
        ::unsetenv("GB_SIMD_LEVEL");
    }
    simd::resetSimdLevel();
}

TEST(SimdDispatch, LaneCountsMatchLevel)
{
    EXPECT_EQ(simd::phmmLanes(simd::SimdLevel::kScalar), 1u);
    EXPECT_EQ(simd::chainLanes(simd::SimdLevel::kScalar), 1u);
    EXPECT_EQ(simd::poaLanes(simd::SimdLevel::kScalar), 1u);
    EXPECT_EQ(simd::abeaLanes(simd::SimdLevel::kScalar), 1u);
    const simd::SimdLevel best = simd::detectSimdLevel();
    if (best >= simd::SimdLevel::kSse4) {
        EXPECT_EQ(simd::phmmLanes(simd::SimdLevel::kSse4), 4u);
        EXPECT_EQ(simd::chainLanes(simd::SimdLevel::kSse4), 4u);
        EXPECT_EQ(simd::poaLanes(simd::SimdLevel::kSse4), 4u);
        EXPECT_EQ(simd::abeaLanes(simd::SimdLevel::kSse4), 4u);
    }
    if (best >= simd::SimdLevel::kAvx2) {
        EXPECT_EQ(simd::phmmLanes(simd::SimdLevel::kAvx2), 8u);
        EXPECT_EQ(simd::chainLanes(simd::SimdLevel::kAvx2), 8u);
        EXPECT_EQ(simd::poaLanes(simd::SimdLevel::kAvx2), 8u);
        EXPECT_EQ(simd::abeaLanes(simd::SimdLevel::kAvx2), 8u);
    }
}

TEST(F32Engine, MatchesScalarLoopForEveryOperandLayout)
{
    // Shapes straddle the 4-row and 1/2/4/8-vector tile edges; padded
    // leading dimensions, a broadcast init row (ldi = 0), a zero start
    // (init = null) and an in-place update (init = out) all appear.
    Rng rng(77);
    auto fill = [&](std::vector<float>& v, size_t n) {
        v.resize(n + 1);
        for (auto& x : v) x = static_cast<float>(rng.normal());
    };
    for (const simd::SimdLevel level : testableLevels()) {
        const simd::F32GemmFn fn = simd::f32GemmFor(level);
        for (int iter = 0; iter < 600; ++iter) {
            const u32 rows = static_cast<u32>(rng.below(11));
            const u32 cols = static_cast<u32>(rng.below(80));
            const u32 depth = static_cast<u32>(rng.below(40));
            const size_t a_row = depth + rng.below(4);
            const size_t ldb = cols + rng.below(5);
            const size_t ldo = cols + rng.below(5);
            const int init_mode = static_cast<int>(rng.below(4));
            std::vector<float> a;
            std::vector<float> b;
            std::vector<float> init;
            fill(a, rows * a_row);
            fill(b, depth * ldb);
            fill(init, rows * ldo);
            std::vector<float> want(rows * ldo + 1, -7.0f);
            if (init_mode == 3) want = init;
            std::vector<float> got = want;

            simd::F32Gemm g;
            g.rows = rows;
            g.cols = cols;
            g.depth = depth;
            g.a = a.data();
            g.a_row = a_row;
            g.b = b.data();
            g.ldb = ldb;
            g.ldo = ldo;
            if (init_mode == 1) g.init = init.data(); // broadcast row
            if (init_mode == 2) {
                g.init = init.data();
                g.ldi = ldo;
            }
            simd::F32Gemm want_g = g;
            want_g.out = want.data();
            if (init_mode == 3) {
                want_g.init = want.data();
                want_g.ldi = ldo;
            }
            simd::f32GemmScalar(want_g);
            g.out = got.data();
            if (init_mode == 3) {
                g.init = got.data();
                g.ldi = ldo;
            }
            fn(g);
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  want.size() * sizeof(float)),
                      0)
                << "level=" << simd::simdLevelName(level)
                << " rows=" << rows << " cols=" << cols
                << " depth=" << depth << " init_mode=" << init_mode;
        }
    }
}

TEST(F32Engine, ScalarLoopIsTheDefinition)
{
    // out = init + a[r][0] * b[0][c] + a[r][1] * b[1][c], in order.
    const float a[] = {1.5f, -2.0f, 0.25f, 4.0f};
    const float b[] = {3.0f, 1.0f, 0.5f, -1.0f};
    const float init[] = {10.0f, 20.0f};
    float out[4] = {};
    simd::F32Gemm g;
    g.rows = 2;
    g.cols = 2;
    g.depth = 2;
    g.a = a;
    g.a_row = 2;
    g.b = b;
    g.ldb = 2;
    g.init = init;
    g.out = out;
    g.ldo = 2;
    for (const simd::SimdLevel level : testableLevels()) {
        simd::f32GemmFor(level)(g);
        EXPECT_EQ(out[0], 10.0f + 1.5f * 3.0f + -2.0f * 0.5f);
        EXPECT_EQ(out[1], 20.0f + 1.5f * 1.0f + -2.0f * -1.0f);
        EXPECT_EQ(out[2], 10.0f + 0.25f * 3.0f + 4.0f * 0.5f);
        EXPECT_EQ(out[3], 20.0f + 0.25f * 1.0f + 4.0f * -1.0f);
    }
}

/** Random pair mix covering the interesting regimes: similar pairs,
 *  unrelated pairs, z-drop triggers, N bases and ragged lengths. */
struct PairStorage
{
    std::vector<std::vector<u8>> queries;
    std::vector<std::vector<u8>> targets;
    std::vector<SwPair> pairs;

    void
    add(std::vector<u8> q, std::vector<u8> t)
    {
        queries.push_back(std::move(q));
        targets.push_back(std::move(t));
    }

    void
    finalize()
    {
        pairs.clear();
        for (size_t i = 0; i < queries.size(); ++i) {
            pairs.push_back({queries[i], targets[i]});
        }
    }
};

PairStorage
makeRandomPairs(u64 count, u64 seed)
{
    Rng rng(seed);
    PairStorage set;
    for (u64 i = 0; i < count; ++i) {
        const u64 m = 1 + rng.below(250);
        std::vector<u8> q(m);
        for (auto& c : q) c = static_cast<u8>(rng.below(4));
        std::vector<u8> t;
        switch (i % 4) {
          case 0: { // mutated copy: high scores, varied ends
            t = q;
            for (auto& c : t) {
                if (rng.chance(0.08)) c = static_cast<u8>(rng.below(4));
            }
            break;
          }
          case 1: { // unrelated: low scores, early z-drops
            t.resize(1 + rng.below(250));
            for (auto& c : t) c = static_cast<u8>(rng.below(4));
            break;
          }
          case 2: { // good prefix then divergence: z-drop mid-way
            t = q;
            for (size_t j = t.size() / 2; j < t.size(); ++j) {
                t[j] = static_cast<u8>(rng.below(4));
            }
            t.insert(t.end(), 40 + rng.below(40),
                     static_cast<u8>(rng.below(4)));
            break;
          }
          default: { // copy with N bases sprinkled in
            t = q;
            for (auto& c : t) {
                if (rng.chance(0.05)) c = 4; // N code
            }
            break;
          }
        }
        set.add(std::move(q), std::move(t));
    }
    set.finalize();
    return set;
}

void
expectEnginesAgree(const PairStorage& set, const SwParams& params)
{
    std::vector<SwResult> scalar(set.pairs.size());
    for (size_t i = 0; i < set.pairs.size(); ++i) {
        NullProbe probe;
        scalar[i] = bandedSwScalar(set.pairs[i].query,
                                   set.pairs[i].target, params, probe);
    }
    for (const simd::SimdLevel level : testableLevels()) {
        LevelGuard guard;
        simd::setSimdLevel(level);
        ASSERT_EQ(simd::activeSimdLevel(), level);
        for (size_t i = 0; i < set.pairs.size(); ++i) {
            const SwResult got =
                bandedSw(set.pairs[i].query, set.pairs[i].target, params);
            EXPECT_TRUE(got == scalar[i])
                << "level " << simd::simdLevelName(level) << ", pair "
                << i << ": score " << got.score << " vs "
                << scalar[i].score;
        }
    }
}

TEST(SimdBsw, MatchesScalarOnRandomPairsAllLevels)
{
    // >= 1000 pairs across the regime mix, default parameters.
    expectEnginesAgree(makeRandomPairs(1024, 501), SwParams{});
}

TEST(SimdBsw, MatchesScalarWithTightZdrop)
{
    SwParams p;
    p.zdrop = 30;
    expectEnginesAgree(makeRandomPairs(256, 502), p);
}

TEST(SimdBsw, MatchesScalarAcrossBandWidths)
{
    for (const i32 band : {1, 7, 33, 128}) {
        SwParams p;
        p.band_width = band;
        expectEnginesAgree(makeRandomPairs(128, 503 + band), p);
    }
}

TEST(SimdBsw, OversizeSequencesRunOnI32Lanes)
{
    // Lengths beyond the i16-safe cap route to the i32 lanes but must
    // still produce identical results through the same API.
    Rng rng(504);
    PairStorage set;
    std::vector<u8> q(static_cast<u64>(simd::kBswMaxSimdLen) + 10);
    for (auto& c : q) c = static_cast<u8>(rng.below(4));
    std::vector<u8> t = q;
    for (auto& c : t) {
        if (rng.chance(0.02)) c = static_cast<u8>(rng.below(4));
    }
    set.add(std::move(q), std::move(t));
    // And one short pair in the same set, on the i16 lanes.
    std::vector<u8> q2(50);
    for (auto& c : q2) c = static_cast<u8>(rng.below(4));
    set.add(q2, q2);
    set.finalize();
    expectEnginesAgree(set, SwParams{});
}

TEST(SimdBsw, ScoresAndPenaltiesPastI16RunOnI32Lanes)
{
    // A score past INT16_MAX (3 x 12000 = 36000) and a gap penalty
    // outside i16 both used to saturate inside the lanes.
    Rng rng(507);
    std::vector<u8> q(12'000);
    for (auto& c : q) c = static_cast<u8>(rng.below(4));
    PairStorage identical;
    identical.add(q, q);
    identical.finalize();
    SwParams high_match;
    high_match.match = 3;
    EXPECT_FALSE(simd::i16Exact(identical.pairs[0], high_match));
    expectEnginesAgree(identical, high_match);

    PairStorage short_pair;
    std::vector<u8> q2(50);
    std::vector<u8> t2(60);
    for (auto& c : q2) c = static_cast<u8>(rng.below(4));
    for (auto& c : t2) c = static_cast<u8>(rng.below(4));
    short_pair.add(std::move(q2), std::move(t2));
    short_pair.finalize();
    SwParams huge_gap;
    huge_gap.gap_open = 40'000;
    EXPECT_FALSE(simd::i16Exact(short_pair.pairs[0], huge_gap));
    EXPECT_TRUE(simd::i16Exact(short_pair.pairs[0], SwParams{}));
    expectEnginesAgree(short_pair, huge_gap);

    // A positive mismatch past i16: five unrelated bases score
    // 5 x 8192 = 40960 while match * min(m, n) is only 5.
    PairStorage unrelated;
    unrelated.add(std::vector<u8>(5, 0), std::vector<u8>(5, 1));
    for (int i = 0; i < 15; ++i) {
        std::vector<u8> q3(5 + rng.below(60));
        std::vector<u8> t3(5 + rng.below(60));
        for (auto& c : q3) c = static_cast<u8>(rng.below(4));
        for (auto& c : t3) c = static_cast<u8>(rng.below(4));
        unrelated.add(std::move(q3), std::move(t3));
    }
    unrelated.finalize();
    SwParams rich;
    rich.match = 1;
    rich.mismatch = 8192;
    rich.gap_open = 6;
    rich.gap_extend = 1;
    EXPECT_FALSE(simd::i16Exact(unrelated.pairs[0], rich));
    expectEnginesAgree(unrelated, rich);
    // A positive mismatch in range stays on the i16 lanes.
    rich.mismatch = 3;
    EXPECT_TRUE(simd::i16Exact(unrelated.pairs[0], rich));
    expectEnginesAgree(unrelated, rich);
}

TEST(SimdBsw, NonLocalModeRunsOnI32Lanes)
{
    SwParams p;
    p.local = false;
    expectEnginesAgree(makeRandomPairs(64, 505), p);
}

/** Random PairHMM inputs: read + qualities + related haplotype. */
struct PhmmCase
{
    std::vector<u8> read;
    std::vector<u8> quals;
    std::vector<u8> hap;
};

std::vector<PhmmCase>
makePhmmCases(u64 count, u64 seed)
{
    Rng rng(seed);
    std::vector<PhmmCase> cases;
    for (u64 i = 0; i < count; ++i) {
        PhmmCase c;
        c.read.resize(1 + rng.below(150));
        for (auto& b : c.read) b = static_cast<u8>(rng.below(4));
        c.quals.resize(c.read.size());
        for (auto& q : c.quals) {
            q = static_cast<u8>(10 + rng.below(31));
        }
        if (i % 3 == 0) {
            c.hap.resize(1 + rng.below(200));
            for (auto& b : c.hap) b = static_cast<u8>(rng.below(4));
        } else {
            c.hap = c.read;
            for (auto& b : c.hap) {
                if (rng.chance(0.05)) b = static_cast<u8>(rng.below(4));
            }
            c.hap.insert(c.hap.end(), rng.below(30),
                         static_cast<u8>(rng.below(4)));
        }
        cases.push_back(std::move(c));
    }
    return cases;
}

/**
 * The dispatched engine against the scalar template at `level`: equal
 * log10_likelihood bits, used_double and cell_updates. Returns the
 * template's result.
 */
PhmmResult
expectEngineMatchesTemplate(const PhmmCase& c, simd::SimdLevel level,
                            const std::string& label)
{
    const PhmmParams params;
    NullProbe probe;
    const PhmmResult want =
        pairHmmLogLikelihood(c.read, c.quals, c.hap, params, probe);
    LevelGuard guard;
    simd::setSimdLevel(level);
    const PhmmResult got =
        pairHmmLogLikelihood(c.read, c.quals, c.hap, params);
    const std::string where = std::string("level ") +
                              simd::simdLevelName(level) + ", " + label +
                              " (m=" + std::to_string(c.read.size()) +
                              ", n=" + std::to_string(c.hap.size()) + ")";
    EXPECT_EQ(std::bit_cast<u64>(got.log10_likelihood),
              std::bit_cast<u64>(want.log10_likelihood))
        << where << ": " << got.log10_likelihood << " vs "
        << want.log10_likelihood;
    EXPECT_EQ(got.used_double, want.used_double) << where;
    EXPECT_EQ(got.cell_updates, want.cell_updates) << where;
    return want;
}

TEST(SimdPhmm, MatchesScalarExactlyAllLevels)
{
    const auto cases = makePhmmCases(300, 601);
    for (const simd::SimdLevel level : testableLevels()) {
        for (size_t i = 0; i < cases.size(); ++i) {
            expectEngineMatchesTemplate(cases[i], level,
                                        "case " + std::to_string(i));
        }
    }
}

TEST(SimdPhmm, UnderflowFallsBackToDoubleExactly)
{
    // A long read against an unrelated haplotype at high base quality
    // drives the float forward pass below kMinAcceptedFloat, forcing
    // the double re-run in both the scalar template and the dispatched
    // engine; the fallback results must agree exactly.
    Rng rng(602);
    PhmmCase c;
    c.read.resize(280);
    for (auto& b : c.read) b = static_cast<u8>(rng.below(4));
    c.quals.assign(c.read.size(), 40);
    c.hap.resize(300);
    for (auto& b : c.hap) b = static_cast<u8>(rng.below(4));

    for (const simd::SimdLevel level : testableLevels()) {
        const PhmmResult want =
            expectEngineMatchesTemplate(c, level, "unrelated pair");
        ASSERT_TRUE(want.used_double)
            << "test input no longer triggers the float underflow";
    }
}

TEST(SimdPhmm, PipelineWindowReadsMatchExactly)
{
    // The reference-guided pipeline's phmm stage: 151-bp reads at Q30
    // against a 400-bp window haplotype, the reads that start before
    // or end after the window hanging 0-150 bases off its edge. Heavy
    // overhang underflows the float pass, so both passes run here.
    Rng rng(603);
    std::vector<u8> hap(400);
    for (auto& b : hap) b = static_cast<u8>(rng.below(4));
    std::vector<PhmmCase> cases;
    for (i64 overhang = 0; overhang <= 150; overhang += 5) {
        for (const bool left : {true, false}) {
            PhmmCase c;
            c.hap = hap;
            const i64 start =
                left ? -overhang
                     : static_cast<i64>(hap.size()) - 151 + overhang;
            for (i64 k = start; k < start + 151; ++k) {
                const bool inside =
                    k >= 0 && k < static_cast<i64>(hap.size());
                u8 b = inside ? hap[static_cast<size_t>(k)]
                              : static_cast<u8>(rng.below(4));
                if (inside && rng.chance(0.01)) {
                    b = static_cast<u8>(rng.below(4));
                }
                c.read.push_back(b);
            }
            c.quals.assign(c.read.size(), 30);
            cases.push_back(std::move(c));
        }
    }
    for (const simd::SimdLevel level : testableLevels()) {
        u64 fallbacks = 0;
        for (size_t i = 0; i < cases.size(); ++i) {
            fallbacks += expectEngineMatchesTemplate(
                             cases[i], level, "window read " +
                                                  std::to_string(i))
                             .used_double;
        }
        EXPECT_GT(fallbacks, 0u) << "no read took the double pass";
        EXPECT_LT(fallbacks, cases.size())
            << "every read took the double pass";
    }
}

TEST(SimdPhmm, EdgeShapesMatchExactly)
{
    // m or n = 1 and lengths one either side of every lane multiple.
    Rng rng(604);
    auto random_case = [&](u64 m, u64 n, u8 qual) {
        PhmmCase c;
        c.read.resize(m);
        for (auto& b : c.read) b = static_cast<u8>(rng.below(4));
        c.quals.assign(m, qual);
        c.hap.resize(n);
        for (auto& b : c.hap) b = static_cast<u8>(rng.below(4));
        return c;
    };
    std::vector<PhmmCase> cases;
    for (const u64 len : {1, 2, 3, 5, 7, 9, 15, 17, 33}) {
        cases.push_back(random_case(1, len, 30));
        cases.push_back(random_case(len, 1, 30));
        cases.push_back(random_case(len, len + 1, 20));
    }
    for (const simd::SimdLevel level : testableLevels()) {
        for (size_t i = 0; i < cases.size(); ++i) {
            expectEngineMatchesTemplate(cases[i], level,
                                        "edge case " + std::to_string(i));
        }
    }

    // N (code 4) never matches, not even another N; unrelated enough
    // to take the double pass.
    PhmmCase with_n = random_case(200, 300, 40);
    for (size_t k = 0; k < with_n.read.size(); k += 3) {
        with_n.read[k] = 4;
    }
    for (size_t k = 0; k < with_n.hap.size(); k += 4) with_n.hap[k] = 4;
    for (const simd::SimdLevel level : testableLevels()) {
        const PhmmResult want =
            expectEngineMatchesTemplate(with_n, level, "N bases");
        ASSERT_TRUE(want.used_double)
            << "the N-base pair no longer underflows the float pass";
    }
}

TEST(SimdPhmm, LongPairWithSubnormalDoubleSumMatchesExactly)
{
    // A 1000-bp read (14% substitutions, Q30) from the middle of a
    // 2000-bp haplotype: the double pass's final sum is subnormal, so
    // the cells feeding it decay through the denormal range. Run
    // under FTZ/DAZ, that pass would flush them and return 0 (-400);
    // without it, every level must keep the same bits.
    Rng rng(605);
    PhmmCase c;
    c.hap.resize(2000);
    for (auto& b : c.hap) b = static_cast<u8>(rng.below(4));
    c.read.assign(c.hap.begin() + 500, c.hap.begin() + 1500);
    for (auto& b : c.read) {
        if (rng.chance(0.14)) {
            b = static_cast<u8>((b + 1 + rng.below(3)) % 4);
        }
    }
    c.quals.assign(c.read.size(), 30);

    for (const simd::SimdLevel level : testableLevels()) {
        const PhmmResult want =
            expectEngineMatchesTemplate(c, level, "long pair");
        ASSERT_TRUE(want.used_double)
            << "the long pair no longer underflows the float pass";
        const double log10_sum =
            want.log10_likelihood + std::log10(kDoubleInitialScale);
        ASSERT_LT(log10_sum, std::log10(DBL_MIN))
            << "the double sum is no longer subnormal";
        ASSERT_NE(want.log10_likelihood, -400.0)
            << "the double sum underflowed to zero";
    }
}

} // namespace
} // namespace gb
