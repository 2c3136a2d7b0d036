/**
 * @file
 * Tests for the gb::simd execution engine: dispatch-level plumbing,
 * the occ counter and the SMEM search built on it (identical results
 * and probe traffic at every dispatch level), scalar/SIMD equivalence
 * for banded-SW (bit-identical scores, end positions and abort flags
 * at every dispatch level) and PairHMM (the dispatched
 * pairHmmLogLikelihood bit-identical to the scalar template, exact
 * double fallback).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
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

TEST(SimdPhmm, MatchesScalarExactlyAllLevels)
{
    const PhmmParams params;
    const auto cases = makePhmmCases(300, 601);
    for (const simd::SimdLevel level : testableLevels()) {
        LevelGuard guard;
        simd::setSimdLevel(level);
        for (size_t i = 0; i < cases.size(); ++i) {
            const auto& c = cases[i];
            NullProbe probe;
            const PhmmResult scalar = pairHmmLogLikelihood(
                c.read, c.quals, c.hap, params, probe);
            const PhmmResult got =
                pairHmmLogLikelihood(c.read, c.quals, c.hap, params);
            EXPECT_EQ(got.log10_likelihood, scalar.log10_likelihood)
                << "level " << simd::simdLevelName(level) << ", case "
                << i;
            EXPECT_EQ(got.cell_updates, scalar.cell_updates)
                << "level " << simd::simdLevelName(level) << ", case "
                << i;
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

    const PhmmParams params;
    NullProbe probe;
    const PhmmResult scalar =
        pairHmmLogLikelihood(c.read, c.quals, c.hap, params, probe);
    ASSERT_TRUE(scalar.used_double)
        << "test input no longer triggers the float underflow";
    for (const simd::SimdLevel level : testableLevels()) {
        LevelGuard guard;
        simd::setSimdLevel(level);
        const PhmmResult got =
            pairHmmLogLikelihood(c.read, c.quals, c.hap, params);
        EXPECT_TRUE(got.used_double)
            << simd::simdLevelName(level);
        EXPECT_DOUBLE_EQ(got.log10_likelihood, scalar.log10_likelihood)
            << simd::simdLevelName(level);
    }
}

} // namespace
} // namespace gb
