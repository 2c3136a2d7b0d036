/**
 * @file
 * Tests for banded Smith-Waterman: golden DP values, an unbanded
 * full-matrix oracle, batch-vs-scalar equivalence, z-drop behaviour,
 * the Fig. 3 overwork accounting, and the one-pair anti-diagonal engine
 * behind bandedSw() (i16 and i32 lanes) against the bandedSwScalar()
 * oracle at every dispatch level.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "align/banded_sw.h"
#include "io/dna.h"
#include "simd/bsw_engine.h"
#include "simd/simd.h"
#include "util/rng.h"

namespace gb {
namespace {

/** Unbanded affine local SW oracle (O(mn), full matrix). */
i32
fullLocalSw(const std::vector<u8>& q, const std::vector<u8>& t,
            const SwParams& p)
{
    const i32 m = static_cast<i32>(q.size());
    const i32 n = static_cast<i32>(t.size());
    constexpr i32 kNegInf = -(1 << 29);
    std::vector<std::vector<i32>> h(m + 1, std::vector<i32>(n + 1, 0));
    std::vector<std::vector<i32>> e(m + 1,
                                    std::vector<i32>(n + 1, kNegInf));
    std::vector<std::vector<i32>> f(m + 1,
                                    std::vector<i32>(n + 1, kNegInf));
    i32 best = 0;
    for (i32 i = 1; i <= m; ++i) {
        for (i32 j = 1; j <= n; ++j) {
            e[i][j] = std::max(e[i][j - 1] - p.gap_extend,
                               h[i][j - 1] - p.gap_open - p.gap_extend);
            f[i][j] = std::max(f[i - 1][j] - p.gap_extend,
                               h[i - 1][j] - p.gap_open - p.gap_extend);
            const i32 sub =
                q[i - 1] == t[j - 1] && q[i - 1] < 4 ? p.match
                                                     : p.mismatch;
            i32 v = h[i - 1][j - 1] + sub;
            v = std::max({v, e[i][j], f[i][j], 0});
            h[i][j] = v;
            best = std::max(best, v);
        }
    }
    return best;
}

/** The per-pair scalar kernel: the oracle every engine must match. */
SwResult
scalarSw(const std::vector<u8>& q, const std::vector<u8>& t,
         const SwParams& p)
{
    NullProbe probe;
    return bandedSwScalar<NullProbe>(q, t, p, probe);
}

std::vector<u8>
codes(const std::string& s)
{
    return encodeDna(s);
}

SwParams
wideParams()
{
    SwParams p;
    p.band_width = 500; // wide enough to equal full SW in these tests
    p.zdrop = 1 << 28;
    return p;
}

TEST(BandedSw, PerfectMatch)
{
    const auto q = codes("ACGTACGTTG");
    const auto r = bandedSw(q, q, wideParams());
    EXPECT_EQ(r.score, 20); // 10 matches x 2
    EXPECT_EQ(r.query_end, 10);
    EXPECT_EQ(r.target_end, 10);
    EXPECT_FALSE(r.aborted);
}

TEST(BandedSw, SingleMismatchGolden)
{
    // 10 bases, one mismatch in the middle: best local alignment can
    // either span everything (9*2 - 4 = 14) or stop before the
    // mismatch (5*2 = 10 at most) -> expect 14.
    const auto q = codes("ACGTAACGTT");
    const auto t = codes("ACGTCACGTT");
    EXPECT_EQ(bandedSw(q, t, wideParams()).score, 14);
}

TEST(BandedSw, GapGolden)
{
    // Query = target with one base deleted: 9 matches and a 1-base
    // gap, 18 - (6+1) = 11, vs the best gapless run ACGTA = 10.
    const auto t = codes("ACGTATCGTG");
    const auto q = codes("ACGTACGTG"); // T at index 5 deleted
    EXPECT_EQ(bandedSw(q, t, wideParams()).score, 11);
}

TEST(BandedSw, EmptyInputs)
{
    const auto q = codes("ACGT");
    const std::vector<u8> empty;
    EXPECT_EQ(bandedSw(empty, q).score, 0);
    EXPECT_EQ(bandedSw(q, empty).score, 0);
    EXPECT_EQ(bandedSw(empty, empty).score, 0);
}

TEST(BandedSw, NNeverMatches)
{
    const auto q = encodeDna("NNNN");
    const auto r = bandedSw(q, q, wideParams());
    EXPECT_EQ(r.score, 0);
}

class BandedSwRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(BandedSwRandom, WideBandMatchesFullMatrixOracle)
{
    Rng rng(300 + GetParam());
    const SwParams p = wideParams();
    for (int trial = 0; trial < 10; ++trial) {
        const u64 m = 1 + rng.below(60);
        const u64 n = 1 + rng.below(60);
        std::vector<u8> q(m);
        std::vector<u8> t(n);
        for (auto& c : q) c = static_cast<u8>(rng.below(4));
        for (auto& c : t) c = static_cast<u8>(rng.below(4));
        EXPECT_EQ(bandedSw(q, t, p).score, fullLocalSw(q, t, p));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandedSwRandom, ::testing::Range(1, 16));

TEST(BandedSw, ScoreSymmetricUnderSwap)
{
    // Local alignment score is symmetric in (q, t) with symmetric
    // scoring.
    Rng rng(91);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<u8> q(30 + rng.below(30));
        std::vector<u8> t(30 + rng.below(30));
        for (auto& c : q) c = static_cast<u8>(rng.below(4));
        for (auto& c : t) c = static_cast<u8>(rng.below(4));
        EXPECT_EQ(bandedSw(q, t, wideParams()).score,
                  bandedSw(t, q, wideParams()).score);
    }
}

TEST(BandedSw, ScoreBoundedByPerfectMatch)
{
    Rng rng(92);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<u8> q(10 + rng.below(50));
        std::vector<u8> t(10 + rng.below(50));
        for (auto& c : q) c = static_cast<u8>(rng.below(4));
        for (auto& c : t) c = static_cast<u8>(rng.below(4));
        const i32 score = bandedSw(q, t, wideParams()).score;
        EXPECT_GE(score, 0);
        EXPECT_LE(score,
                  2 * static_cast<i32>(std::min(q.size(), t.size())));
    }
}

TEST(BandedSw, ZdropAbortsDissimilarPairs)
{
    Rng rng(93);
    // Similar prefix, then garbage: z-drop should fire.
    std::string prefix(100, 'A');
    std::string q_str = prefix;
    std::string t_str = prefix;
    for (int i = 0; i < 300; ++i) {
        q_str += "ACGT"[rng.below(2)];      // A/C only
        t_str += "ACGT"[2 + rng.below(2)];  // G/T only
    }
    SwParams p;
    p.zdrop = 50;
    p.band_width = 500;
    const auto r = bandedSw(codes(q_str), codes(t_str), p);
    EXPECT_TRUE(r.aborted);
    // Aborting saves cell updates vs the full matrix.
    SwParams no_drop = p;
    no_drop.zdrop = 1 << 28;
    const auto full = bandedSw(codes(q_str), codes(t_str), no_drop);
    EXPECT_LT(r.cell_updates, full.cell_updates);
    EXPECT_EQ(r.score, full.score); // best was reached before abort
}

TEST(BatchSw, MatchesScalarScores)
{
    Rng rng(94);
    std::vector<std::vector<u8>> qs;
    std::vector<std::vector<u8>> ts;
    std::vector<SwPair> pairs;
    for (int i = 0; i < 37; ++i) { // not a multiple of 16
        std::vector<u8> q(20 + rng.below(100));
        std::vector<u8> t(20 + rng.below(100));
        for (auto& c : q) c = static_cast<u8>(rng.below(4));
        // Make some pairs similar so scores vary.
        if (i % 3 == 0) {
            t = q;
            for (auto& c : t) {
                if (rng.chance(0.1)) c = static_cast<u8>(rng.below(4));
            }
        } else {
            for (auto& c : t) c = static_cast<u8>(rng.below(4));
        }
        qs.push_back(std::move(q));
        ts.push_back(std::move(t));
    }
    for (size_t i = 0; i < qs.size(); ++i) {
        pairs.push_back({qs[i], ts[i]});
    }

    SwParams p;
    p.band_width = 40;
    BatchSwAligner aligner(p);
    NullProbe probe;
    BatchSwStats stats;
    const auto batch = aligner.align(pairs, probe, &stats);

    ASSERT_EQ(batch.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
        const auto scalar = scalarSw(qs[i], ts[i], p);
        EXPECT_EQ(batch[i].score, scalar.score) << "pair " << i;
        EXPECT_EQ(batch[i].query_end, scalar.query_end) << "pair " << i;
        EXPECT_EQ(batch[i].aborted, scalar.aborted) << "pair " << i;
    }
    // Lockstep execution does at least as much work as scalar.
    u64 scalar_cells = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
        scalar_cells += scalarSw(qs[i], ts[i], p).cell_updates;
    }
    EXPECT_EQ(stats.useful_cells, scalar_cells);
    EXPECT_GE(stats.totalCellUpdates(), scalar_cells);
    EXPECT_GE(stats.overworkRatio(), 1.0);
}

TEST(BatchSw, UniformLengthsHaveLowOverwork)
{
    // Identical-length well-matched pairs: almost no wasted lanes
    // (only the final ragged batch).
    Rng rng(95);
    std::vector<std::vector<u8>> qs(32);
    std::vector<SwPair> pairs;
    for (auto& q : qs) {
        q.resize(80);
        for (auto& c : q) c = static_cast<u8>(rng.below(4));
    }
    for (auto& q : qs) pairs.push_back({q, q});

    SwParams p;
    p.band_width = 20;
    BatchSwAligner aligner(p);
    NullProbe probe;
    BatchSwStats stats;
    aligner.align(pairs, probe, &stats);
    EXPECT_NEAR(stats.overworkRatio(), 1.0, 0.01);
}

TEST(BatchSw, MixedLengthsInflateCellUpdates)
{
    // Highly variable lengths without sorting: substantial overwork,
    // the effect behind the paper's 2.2x observation.
    Rng rng(96);
    std::vector<std::vector<u8>> qs;
    std::vector<SwPair> pairs;
    for (int i = 0; i < 64; ++i) {
        std::vector<u8> q(i % 2 ? 20 : 200);
        for (auto& c : q) c = static_cast<u8>(rng.below(4));
        qs.push_back(std::move(q));
    }
    for (auto& q : qs) pairs.push_back({q, q});

    SwParams p;
    p.band_width = 20;
    BatchSwAligner aligner(p);
    NullProbe probe;
    BatchSwStats stats;
    aligner.align(pairs, probe, &stats);
    EXPECT_GT(stats.overworkRatio(), 1.5);
}

// ---- one-pair engine vs the scalar oracle ----------------------------

/** Restores the process-global dispatch level on scope exit. */
struct LevelGuard
{
    ~LevelGuard() { simd::resetSimdLevel(); }
};

/** Levels this host can actually execute (always includes scalar). */
std::vector<simd::SimdLevel>
testableLevels()
{
    std::vector<simd::SimdLevel> levels;
    for (const simd::SimdLevel level :
         {simd::SimdLevel::kScalar, simd::SimdLevel::kSse4,
          simd::SimdLevel::kAvx2}) {
        if (level <= simd::detectSimdLevel()) levels.push_back(level);
    }
    return levels;
}

std::string
describe(const SwResult& r)
{
    return "{score " + std::to_string(r.score) + ", end (" +
           std::to_string(r.query_end) + ", " +
           std::to_string(r.target_end) + "), aborted " +
           std::to_string(r.aborted) + ", cells " +
           std::to_string(r.cell_updates) + "}";
}

/**
 * One pair in local and global mode at every testable level, compared
 * field for field with the scalar oracle. Returns false on a mismatch.
 */
bool
expectEngineMatches(const std::vector<u8>& q, const std::vector<u8>& t,
                    SwParams p, const std::string& ctx)
{
    bool ok = true;
    for (const bool local : {true, false}) {
        p.local = local;
        const SwResult want = scalarSw(q, t, p);
        for (const simd::SimdLevel level : testableLevels()) {
            LevelGuard guard;
            simd::setSimdLevel(level);
            const SwResult got = bandedSw(q, t, p);
            if (got == want) continue;
            ok = false;
            ADD_FAILURE() << ctx << (local ? " local " : " global ")
                          << simd::simdLevelName(level) << ": got "
                          << describe(got) << ", scalar " << describe(want);
        }
    }
    return ok;
}

std::vector<u8>
randomCodes(Rng& rng, u64 len)
{
    std::vector<u8> s(len);
    for (auto& c : s) c = static_cast<u8>(rng.below(4));
    return s;
}

/** Seeded pair of one of four regimes; lengths 1..64 (ragged). */
void
randomPair(Rng& rng, std::vector<u8>& q, std::vector<u8>& t)
{
    q = randomCodes(rng, 1 + rng.below(64));
    switch (rng.below(4)) {
      case 0: // mutated copy with indels: high scores, varied ends
        t.clear();
        for (const u8 c : q) {
            if (rng.chance(0.03)) continue;
            if (rng.chance(0.03)) t.push_back(static_cast<u8>(rng.below(4)));
            t.push_back(rng.chance(0.06) ? static_cast<u8>(rng.below(4))
                                         : c);
        }
        if (t.empty()) t.push_back(0);
        break;
      case 1: // unrelated: low scores, early z-drops
        t = randomCodes(rng, 1 + rng.below(64));
        break;
      case 2: // good prefix, then divergence: z-drop mid-pair
        t = q;
        for (size_t j = t.size() / 2; j < t.size(); ++j) {
            t[j] = static_cast<u8>(rng.below(4));
        }
        break;
      default: // N codes in both sequences
        t = q;
        for (auto& c : t) {
            if (rng.chance(0.05)) c = 4;
        }
        for (auto& c : q) {
            if (rng.chance(0.02)) c = 4;
        }
        break;
    }
}

/** Shards of the 100k random pairs; each shard is one ctest case. */
constexpr int kRandomPairShards = 8;

class BandedSwEngineShard : public ::testing::TestWithParam<int>
{
};

TEST_P(BandedSwEngineShard, MatchesScalarOnRandomPairsAndParams)
{
    // 100k seeded pairs, each in local and global mode at every level,
    // under randomized scoring, band and z-drop parameters. Every shard
    // replays the whole generator and aligns every kRandomPairShards-th
    // pair, so the shards together cover all 100k pairs and ctest -j
    // runs them side by side (TSan slows this test ~45x).
    const int shard = GetParam();
    Rng rng(1301);
    std::vector<u8> q;
    std::vector<u8> t;
    u64 failures = 0;
    for (int pair = 0; pair < 100'000 && failures < 5; ++pair) {
        randomPair(rng, q, t);
        SwParams p;
        p.band_width = static_cast<i32>(rng.below(17));
        p.match = static_cast<i32>(1 + rng.below(3));
        p.mismatch = -static_cast<i32>(1 + rng.below(6));
        p.gap_open = static_cast<i32>(rng.below(9));
        p.gap_extend = static_cast<i32>(rng.below(4));
        const i32 zdrops[] = {5, 20, 100, 1 << 28};
        p.zdrop = zdrops[rng.below(4)];
        if (pair % kRandomPairShards != shard) continue;
        failures += !expectEngineMatches(q, t, p,
                                            "pair " + std::to_string(pair));
    }
}

INSTANTIATE_TEST_SUITE_P(Seed1301, BandedSwEngineShard,
                         ::testing::Range(0, kRandomPairShards));

TEST(BandedSwEngine, MatchesScalarOnEdgeShapes)
{
    Rng rng(1302);
    SwParams no_drop;
    no_drop.zdrop = 1 << 30;

    // m >> n: rows past the band are empty; with default z-drop the
    // scalar kernel aborts on row_best = kNegInf, without it it runs on.
    {
        const auto q = randomCodes(rng, 300);
        const auto t = randomCodes(rng, 10);
        expectEngineMatches(q, t, SwParams{}, "m>>n");
        expectEngineMatches(q, t, no_drop, "m>>n no-drop");
        auto similar = q;
        similar.resize(10);
        expectEngineMatches(q, similar, no_drop, "m>>n prefix");
    }
    // n >> m: a band far wider than the query.
    {
        const auto q = randomCodes(rng, 12);
        auto t = randomCodes(rng, 700);
        std::copy(q.begin(), q.end(), t.begin() + 400);
        expectEngineMatches(q, t, SwParams{}, "n>>m");
        expectEngineMatches(q, t, no_drop, "n>>m no-drop");
    }
    // Band widths 0 and 1 on similar and unrelated pairs.
    for (const i32 band : {0, 1}) {
        SwParams p;
        p.band_width = band;
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<u8> q;
            std::vector<u8> t;
            randomPair(rng, q, t);
            expectEngineMatches(q, t, p,
                                   "band " + std::to_string(band));
        }
    }
    // Z-drop firing mid-pair: similar prefix, then disjoint alphabets.
    {
        std::vector<u8> q = randomCodes(rng, 120);
        std::vector<u8> t = q;
        for (int i = 0; i < 300; ++i) {
            q.push_back(static_cast<u8>(rng.below(2)));
            t.push_back(static_cast<u8>(2 + rng.below(2)));
        }
        SwParams p;
        p.zdrop = 40;
        p.band_width = 60;
        ASSERT_TRUE(scalarSw(q, t, p).aborted);
        expectEngineMatches(q, t, p, "zdrop mid-pair");
    }
    // N codes: all-N, N-only query, N runs inside a match.
    {
        const std::vector<u8> all_n(37, 4);
        auto q = randomCodes(rng, 90);
        auto t = q;
        std::fill(t.begin() + 30, t.begin() + 45, u8{4});
        expectEngineMatches(all_n, all_n, SwParams{}, "all N");
        expectEngineMatches(all_n, q, SwParams{}, "N query");
        expectEngineMatches(q, t, SwParams{}, "N run");
    }
    // Every length pair 1..19: none, some and all multiples of the
    // 4- and 8-lane widths.
    for (u64 m = 1; m <= 19; ++m) {
        for (u64 n = 1; n <= 19; ++n) {
            SwParams p;
            p.band_width = static_cast<i32>((m * 7 + n) % 6);
            const auto q = randomCodes(rng, m);
            auto t = randomCodes(rng, n);
            std::copy_n(q.begin(), std::min(m, n) / 2, t.begin());
            expectEngineMatches(q, t, p,
                                   "m=" + std::to_string(m) +
                                       " n=" + std::to_string(n));
        }
    }
}

TEST(BandedSwEngine, HandlesPairsBeyondTheI16Cap)
{
    // Longer than kBswMaxSimdLen (16000): the i32 lanes take it.
    Rng rng(1303);
    const auto q = randomCodes(rng, 16'500);
    auto t = q;
    for (auto& c : t) {
        if (rng.chance(0.02)) c = static_cast<u8>(rng.below(4));
    }
    t.insert(t.begin() + 8'000, 3, u8{1});
    SwParams p;
    p.zdrop = 1 << 28;
    expectEngineMatches(q, t, p, "16.5 kbp");
    EXPECT_GT(scalarSw(q, t, p).score, 16'000);
}

TEST(BandedSwEngine, OutOfRangeParamsStillMatchScalar)
{
    // A negative gap open and huge penalties: the i32 lanes take both.
    Rng rng(1304);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<u8> q;
        std::vector<u8> t;
        randomPair(rng, q, t);
        SwParams p;
        p.band_width = 10;
        p.gap_open = trial % 2 ? -2 : 1 << 20;
        p.zdrop = 1 << 28;
        expectEngineMatches(q, t, p, "trial " + std::to_string(trial));
    }
}

TEST(BandedSwEngine, MatchesScalarAtTheI16Gate)
{
    // 7 x 4681 = 32767 = INT16_MAX is the highest score the i16 lanes
    // take; one more base needs the i32 lanes. Likewise for length:
    // kBswMaxSimdLen passes, one more base does not.
    Rng rng(1305);
    SwParams p;
    p.match = 7;
    p.zdrop = 1 << 28;
    const auto at_gate = randomCodes(rng, 4681);
    auto past_gate = at_gate;
    past_gate.push_back(2);
    ASSERT_TRUE(simd::i16Exact({at_gate, at_gate}, p));
    ASSERT_FALSE(simd::i16Exact({past_gate, past_gate}, p));
    expectEngineMatches(at_gate, at_gate, p, "score at INT16_MAX");
    expectEngineMatches(past_gate, past_gate, p, "score past INT16_MAX");
    EXPECT_EQ(scalarSw(at_gate, at_gate, p).score, 32767);
    EXPECT_EQ(scalarSw(past_gate, past_gate, p).score, 32774);

    const auto at_cap = randomCodes(rng, simd::kBswMaxSimdLen);
    auto past_cap = at_cap;
    past_cap.push_back(1);
    ASSERT_TRUE(simd::i16Exact({at_cap, at_cap}, SwParams{}));
    ASSERT_FALSE(simd::i16Exact({past_cap, past_cap}, SwParams{}));
    expectEngineMatches(at_cap, at_cap, SwParams{}, "length at cap");
    expectEngineMatches(past_cap, past_cap, SwParams{},
                           "length past cap");
}

TEST(BandedSwEngine, NegativeAndHugePenaltiesMatchScalar)
{
    // gap_open < 0 with gap_open + gap_extend >= 0 stays on i16 lanes;
    // a net gap bonus and 2^16-scale penalties take the i32 lanes.
    struct Case
    {
        i32 match, mismatch, gap_open, gap_extend;
        bool i16;
    };
    const Case cases[] = {
        {2, -4, -1, 2, true},
        {1, 3, 6, 1, true}, // positive mismatch, 3 x 64 is far in range
        {2, -4, -5, 1, false},
        {1, -3, -2, 0, false},
        {1 << 16, -(1 << 16), 1 << 16, 1 << 15, false},
        {3, -(1 << 16), 1 << 16, 1, false},
    };
    Rng rng(1306);
    for (const Case& c : cases) {
        SwParams p;
        p.match = c.match;
        p.mismatch = c.mismatch;
        p.gap_open = c.gap_open;
        p.gap_extend = c.gap_extend;
        p.band_width = 12;
        p.zdrop = 1 << 28;
        for (int trial = 0; trial < 40; ++trial) {
            std::vector<u8> q;
            std::vector<u8> t;
            randomPair(rng, q, t);
            EXPECT_EQ(simd::i16Exact({q, t}, p), c.i16)
                << "gap_open " << c.gap_open;
            expectEngineMatches(q, t, p,
                                   "gap_open " +
                                       std::to_string(c.gap_open) +
                                       " trial " + std::to_string(trial));
        }
    }

    // A positive mismatch bounds the score too: five unrelated bases
    // at mismatch = 8192 score 40960, past INT16_MAX, so every pair of
    // >= 5 bases takes the i32 lanes.
    SwParams rich;
    rich.match = 1;
    rich.mismatch = 8192;
    rich.gap_open = 6;
    rich.gap_extend = 1;
    rich.band_width = 12;
    rich.zdrop = 1 << 28;
    const std::vector<u8> as(5, 0);
    const std::vector<u8> cs(5, 1);
    EXPECT_FALSE(simd::i16Exact({as, cs}, rich));
    EXPECT_EQ(scalarSw(as, cs, rich).score, 5 * 8192);
    expectEngineMatches(as, cs, rich, "mismatch 8192, 5 x 5");
    for (int trial = 0; trial < 40; ++trial) {
        const auto q = randomCodes(rng, 5 + rng.below(60));
        const auto t = randomCodes(rng, 5 + rng.below(60));
        EXPECT_FALSE(simd::i16Exact({q, t}, rich));
        expectEngineMatches(q, t, rich,
                               "mismatch 8192 trial " +
                                   std::to_string(trial));
    }
}

TEST(BandedSwEngine, ZdropInTheFirstRowsOfASpuriousSeed)
{
    // A 10-base seed, then unrelated bases: z-drop fires a few rows in,
    // and the cells counted up to the aborting row must match.
    Rng rng(1307);
    for (int trial = 0; trial < 30; ++trial) {
        auto q = randomCodes(rng, 151);
        std::vector<u8> t(171);
        for (auto& c : t) c = static_cast<u8>(rng.below(4));
        std::copy_n(q.begin(), 10, t.begin() + 10);
        for (size_t i = 10; i < q.size(); ++i) {
            q[i] = static_cast<u8>(rng.below(2)); // disjoint alphabets
            t[i + 20] = static_cast<u8>(2 + rng.below(2));
        }
        SwParams p;
        p.zdrop = 8 + static_cast<i32>(trial % 5);
        const SwResult want = scalarSw(q, t, p);
        ASSERT_TRUE(want.aborted);
        ASSERT_LT(want.query_end, 20);
        expectEngineMatches(q, t, p, "trial " + std::to_string(trial));
    }
}

TEST(BandedSwEngine, BandWiderThanBothSequences)
{
    Rng rng(1308);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<u8> q;
        std::vector<u8> t;
        randomPair(rng, q, t);
        SwParams p;
        p.band_width = 64 + static_cast<i32>(rng.below(400));
        p.zdrop = trial % 2 ? 1 << 28 : 30;
        expectEngineMatches(q, t, p, "trial " + std::to_string(trial));
        if (p.zdrop == 1 << 28) {
            EXPECT_EQ(bandedSw(q, t, p).score, fullLocalSw(q, t, p));
        }
    }
}

} // namespace
} // namespace gb
