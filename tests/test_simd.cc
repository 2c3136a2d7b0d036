/**
 * @file
 * Tests for the gb::simd execution engine: dispatch-level plumbing,
 * the occ counter and the SMEM search built on it (identical results
 * and probe traffic at every dispatch level), scalar/SIMD equivalence
 * for banded-SW (bit-identical scores, end positions and abort flags
 * at every dispatch level), PairHMM (the dispatched
 * pairHmmLogLikelihood bit-identical to the scalar template in
 * likelihood, used_double and cell count, float and double passes) and the f32 micro-GEMM (bit-identical to its
 * scalar triple loop for every operand layout).
 */
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "align/banded_sw.h"
#include "arch/probe.h"
#include "index/fm_index.h"
#include "io/dna.h"
#include "phmm/pairhmm.h"
#include "simd/bsw_engine.h"
#include "simd/chain_engine.h"
#include "simd/f32_engine.h"
#include "simd/occ_engine.h"
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
    EXPECT_EQ(simd::bswLanes(simd::SimdLevel::kScalar), 1u);
    EXPECT_EQ(simd::phmmLanes(simd::SimdLevel::kScalar), 1u);
    EXPECT_EQ(simd::chainLanes(simd::SimdLevel::kScalar), 1u);
    EXPECT_EQ(simd::poaLanes(simd::SimdLevel::kScalar), 1u);
    const simd::SimdLevel best = simd::detectSimdLevel();
    if (best >= simd::SimdLevel::kSse4) {
        EXPECT_EQ(simd::bswLanes(simd::SimdLevel::kSse4), 8u);
        EXPECT_EQ(simd::phmmLanes(simd::SimdLevel::kSse4), 4u);
        EXPECT_EQ(simd::chainLanes(simd::SimdLevel::kSse4), 4u);
        EXPECT_EQ(simd::poaLanes(simd::SimdLevel::kSse4), 4u);
    }
    if (best >= simd::SimdLevel::kAvx2) {
        EXPECT_EQ(simd::bswLanes(simd::SimdLevel::kAvx2), 16u);
        EXPECT_EQ(simd::phmmLanes(simd::SimdLevel::kAvx2), 8u);
        EXPECT_EQ(simd::chainLanes(simd::SimdLevel::kAvx2), 8u);
        EXPECT_EQ(simd::poaLanes(simd::SimdLevel::kAvx2), 8u);
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

TEST(OccEngine, MatchesScalarOnRandomBuffers)
{
    Rng rng(42);
    for (const simd::SimdLevel level : testableLevels()) {
        LevelGuard guard;
        simd::setSimdLevel(level);
        const auto fn = simd::occCountFor(simd::activeSimdLevel());
        for (int iter = 0; iter < 400; ++iter) {
            const u32 len = static_cast<u32>(rng.below(520));
            std::vector<u8> bytes(len + 1); // +1: len==0 needs data()
            for (u32 j = 0; j < len; ++j) {
                bytes[j] = static_cast<u8>(rng.below(6));
            }
            u64 want[FmIndex::kAlphabet] = {7, 0, 3, 0, 0, 11};
            u64 got[FmIndex::kAlphabet] = {7, 0, 3, 0, 0, 11};
            simd::occCountScalar(bytes.data(), len, want);
            fn(bytes.data(), len, got);
            for (u32 c = 0; c < FmIndex::kAlphabet; ++c) {
                ASSERT_EQ(got[c], want[c])
                    << "level=" << simd::simdLevelName(level)
                    << " len=" << len << " sym=" << c;
            }
        }
    }
}

TEST(OccEngine, CountsAccumulateOnTopOfExistingValues)
{
    const u8 bytes[] = {0, 1, 2, 3, 4, 5, 2, 2};
    for (const simd::SimdLevel level : testableLevels()) {
        u64 counts[FmIndex::kAlphabet] = {100, 0, 50, 0, 0, 9};
        simd::occCountFor(level)(bytes, 8, counts);
        EXPECT_EQ(counts[0], 101u);
        EXPECT_EQ(counts[1], 1u);
        EXPECT_EQ(counts[2], 53u);
        EXPECT_EQ(counts[3], 1u);
        EXPECT_EQ(counts[4], 1u);
        EXPECT_EQ(counts[5], 10u);
    }
}

std::string
randomDna(Rng& rng, u64 len)
{
    std::string s(len, 'A');
    for (auto& c : s) c = "ACGT"[rng.below(4)];
    return s;
}

/** Encoded read sampled from ref with mutations and occasional Ns. */
std::vector<u8>
sampleRead(Rng& rng, const std::string& ref, u64 min_len, u64 max_len)
{
    const u64 len = min_len + rng.below(max_len - min_len + 1);
    const u64 start = rng.below(ref.size() - len);
    std::string s = ref.substr(start, len);
    const u64 edits = rng.below(4);
    for (u64 e = 0; e < edits; ++e) {
        s[rng.below(s.size())] = "ACGTN"[rng.below(5)];
    }
    if (rng.chance(0.25)) s[rng.below(s.size())] = 'N';
    return encodeDna(s);
}

/** Every SMEM of every read, plus the probe traffic of the search. */
struct SmemRun
{
    std::vector<std::vector<Smem>> mems;
    CountingProbe probe;
};

SmemRun
runSmems(const FmIndex& fm, const std::vector<std::vector<u8>>& reads)
{
    SmemRun run;
    run.mems.resize(reads.size());
    for (size_t q = 0; q < reads.size(); ++q) {
        fm.smems(std::span<const u8>(reads[q]), 19, run.mems[q],
                 run.probe);
    }
    return run;
}

TEST(OccEngine, SmemsIdenticalAtEveryLevel)
{
    // The occ lookups inside FmIndex::smems resolve partial blocks
    // through the dispatched counter: the SMEMs and the modeled
    // traffic must not depend on the level.
    Rng rng(13);
    const std::string ref = randomDna(rng, 2000);
    const FmIndex fm = FmIndex::build(ref);
    std::vector<std::vector<u8>> reads;
    for (int i = 0; i < 200; ++i) {
        reads.push_back(sampleRead(rng, ref, 30, 100));
    }
    reads.push_back({});                  // empty read
    reads.push_back(encodeDna("NNNNNN")); // all-ambiguous read
    reads.push_back(encodeDna("AC"));     // shorter than min_len

    SmemRun want;
    {
        LevelGuard guard;
        simd::setSimdLevel(simd::SimdLevel::kScalar);
        want = runSmems(fm, reads);
    }
    u64 total = 0;
    for (const auto& m : want.mems) total += m.size();
    ASSERT_GT(total, reads.size()) << "read set finds too few SMEMs";

    for (const simd::SimdLevel level : testableLevels()) {
        LevelGuard guard;
        simd::setSimdLevel(level);
        const SmemRun got = runSmems(fm, reads);
        for (size_t q = 0; q < reads.size(); ++q) {
            ASSERT_EQ(got.mems[q].size(), want.mems[q].size())
                << "level=" << simd::simdLevelName(level)
                << " read=" << q;
            for (size_t m = 0; m < want.mems[q].size(); ++m) {
                const Smem& g = got.mems[q][m];
                const Smem& w = want.mems[q][m];
                EXPECT_EQ(std::tie(g.k, g.l, g.s, g.begin, g.end),
                          std::tie(w.k, w.l, w.s, w.begin, w.end))
                    << "level=" << simd::simdLevelName(level)
                    << " read=" << q << " smem=" << m;
            }
        }
        for (size_t c = 0; c < kNumOpClasses; ++c) {
            EXPECT_EQ(got.probe.counts().by_class[c],
                      want.probe.counts().by_class[c])
                << opClassName(static_cast<OpClass>(c));
        }
        EXPECT_EQ(got.probe.loadBytes(), want.probe.loadBytes());
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
        const auto got = simd::bswAlign(set.pairs, params);
        ASSERT_EQ(got.size(), set.pairs.size());
        for (size_t i = 0; i < set.pairs.size(); ++i) {
            const std::string ctx = "level " +
                std::string(simd::simdLevelName(level)) + ", pair " +
                std::to_string(i);
            EXPECT_EQ(got[i].score, scalar[i].score) << ctx;
            EXPECT_EQ(got[i].query_end, scalar[i].query_end) << ctx;
            EXPECT_EQ(got[i].target_end, scalar[i].target_end) << ctx;
            EXPECT_EQ(got[i].aborted, scalar[i].aborted) << ctx;
            EXPECT_EQ(got[i].cell_updates, scalar[i].cell_updates)
                << ctx;
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

TEST(SimdBsw, OversizeSequencesFallBackToScalar)
{
    // Lengths beyond the i16-safe cap route to the scalar kernel but
    // must still produce identical results through the same API.
    Rng rng(504);
    PairStorage set;
    std::vector<u8> q(static_cast<u64>(simd::kBswMaxSimdLen) + 10);
    for (auto& c : q) c = static_cast<u8>(rng.below(4));
    std::vector<u8> t = q;
    for (auto& c : t) {
        if (rng.chance(0.02)) c = static_cast<u8>(rng.below(4));
    }
    set.add(std::move(q), std::move(t));
    // And one short pair in the same call to exercise mixed batches.
    std::vector<u8> q2(50);
    for (auto& c : q2) c = static_cast<u8>(rng.below(4));
    set.add(q2, q2);
    set.finalize();
    expectEnginesAgree(set, SwParams{});
}

TEST(SimdBsw, NonLocalModeFallsBackToScalar)
{
    SwParams p;
    p.local = false;
    expectEnginesAgree(makeRandomPairs(64, 505), p);
}

TEST(SimdBsw, StatsCountUsefulCellsExactly)
{
    const PairStorage set = makeRandomPairs(200, 506);
    const SwParams p;
    u64 scalar_cells = 0;
    for (const auto& pair : set.pairs) {
        NullProbe probe;
        scalar_cells += bandedSwScalar(pair.query, pair.target, p, probe)
                            .cell_updates;
    }
    for (const simd::SimdLevel level : testableLevels()) {
        LevelGuard guard;
        simd::setSimdLevel(level);
        BatchSwStats stats;
        simd::bswAlign(set.pairs, p, &stats);
        EXPECT_EQ(stats.useful_cells, scalar_cells)
            << simd::simdLevelName(level);
        EXPECT_GE(stats.totalCellUpdates(), scalar_cells)
            << simd::simdLevelName(level);
        EXPECT_GE(stats.overworkRatio(), 1.0)
            << simd::simdLevelName(level);
        EXPECT_EQ(stats.lanes, simd::bswLanes(level));
    }
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
