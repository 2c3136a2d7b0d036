/**
 * @file
 * Tests for minimizer extraction, anchor matching and the chaining DP.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/chain.h"
#include "core/benchmark.h"
#include "io/dna.h"
#include "simd/chain_engine.h"
#include "simd/simd.h"
#include "util/rng.h"

namespace gb {
namespace {

std::string
randomDna(Rng& rng, u64 len)
{
    std::string s(len, 'A');
    for (auto& c : s) c = "ACGT"[rng.below(4)];
    return s;
}

TEST(Minimizers, DensityRoughlyTwoOverWPlusOne)
{
    // Classic minimizer density: ~2/(w+1) of positions are sampled.
    Rng rng(61);
    const auto codes = encodeDna(randomDna(rng, 20'000));
    MinimizerParams p;
    p.k = 15;
    p.w = 10;
    const auto mins = extractMinimizers(codes, p);
    const double density =
        static_cast<double>(mins.size()) / 20'000.0;
    EXPECT_NEAR(density, 2.0 / (p.w + 1), 0.05);
}

TEST(Minimizers, DeterministicAndSorted)
{
    Rng rng(62);
    const auto codes = encodeDna(randomDna(rng, 2000));
    const auto a = extractMinimizers(codes, {});
    const auto b = extractMinimizers(codes, {});
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pos, b[i].pos);
        EXPECT_EQ(a[i].hash, b[i].hash);
        if (i) {
            EXPECT_LT(a[i - 1].pos, a[i].pos);
        }
    }
}

TEST(Minimizers, InvariantUnderReverseComplementHashes)
{
    // Canonical hashing: a sequence and its reverse complement share
    // the same multiset of minimizer hashes.
    Rng rng(63);
    const std::string s = randomDna(rng, 3000);
    const auto fwd =
        extractMinimizers(encodeDna(s), {});
    const auto rev =
        extractMinimizers(encodeDna(reverseComplement(s)), {});
    std::multiset<u64> fh;
    std::multiset<u64> rh;
    for (const auto& m : fwd) fh.insert(m.hash);
    for (const auto& m : rev) rh.insert(m.hash);
    // Window effects can differ at the edges; require near-identity.
    std::vector<u64> inter;
    std::set_intersection(fh.begin(), fh.end(), rh.begin(), rh.end(),
                          std::back_inserter(inter));
    EXPECT_GT(static_cast<double>(inter.size()),
              0.9 * static_cast<double>(fh.size()));
}

TEST(Minimizers, HandlesShortAndAmbiguous)
{
    EXPECT_TRUE(extractMinimizers(encodeDna("ACG"), {}).empty());
    const auto codes = encodeDna(std::string(200, 'N'));
    EXPECT_TRUE(extractMinimizers(codes, {}).empty());
    EXPECT_THROW(extractMinimizers(encodeDna("ACGT"),
                                   MinimizerParams{2, 10}),
                 InputError);
}

TEST(Anchors, OverlappingReadsShareAnchorsOnDiagonal)
{
    Rng rng(64);
    const std::string genome = randomDna(rng, 6000);
    // Two reads overlapping by 2000 bases.
    const std::string r1 = genome.substr(0, 4000);
    const std::string r2 = genome.substr(2000, 4000);
    const auto m1 = extractMinimizers(encodeDna(r1), {});
    const auto m2 = extractMinimizers(encodeDna(r2), {});
    const auto anchors = matchAnchors(m1, m2, 15);
    ASSERT_GT(anchors.size(), 20u);
    // Most anchors should lie near the diagonal tpos - qpos = 2000.
    u64 on_diag = 0;
    for (const auto& a : anchors) {
        const i64 d = static_cast<i64>(a.tpos) - a.qpos;
        if (std::abs(d - 2000) < 50) ++on_diag;
    }
    EXPECT_GT(static_cast<double>(on_diag),
              0.8 * static_cast<double>(anchors.size()));
}

TEST(ChainDp, PerfectDiagonalChainsCompletely)
{
    // Anchors on one clean diagonal chain into a single chain whose
    // score approximates the covered length.
    std::vector<Anchor> anchors;
    for (u32 i = 0; i < 50; ++i) {
        anchors.push_back({1000 + i * 40, 500 + i * 40, 15});
    }
    const auto chains = chainAnchors(anchors);
    ASSERT_EQ(chains.size(), 1u);
    EXPECT_EQ(chains[0].anchors.size(), 50u);
    // First anchor contributes span; the rest min(gap, span)=15 each.
    EXPECT_EQ(chains[0].score, 15 + 49 * 15);
}

TEST(ChainDp, SplitsOnHugeGap)
{
    std::vector<Anchor> anchors;
    for (u32 i = 0; i < 20; ++i) {
        anchors.push_back({i * 40, i * 40, 15});
    }
    for (u32 i = 0; i < 20; ++i) {
        // Far away on target, same query trajectory: un-chainable.
        anchors.push_back({100'000 + i * 40, 900 + i * 40, 15});
    }
    std::sort(anchors.begin(), anchors.end(),
              [](const Anchor& a, const Anchor& b) {
                  return a.tpos < b.tpos;
              });
    ChainParams p;
    p.min_score = 40;
    const auto chains = chainAnchors(anchors, p);
    ASSERT_EQ(chains.size(), 2u);
    EXPECT_EQ(chains[0].anchors.size(), 20u);
    EXPECT_EQ(chains[1].anchors.size(), 20u);
}

TEST(ChainDp, ScoreBoundedByAnchorSpans)
{
    Rng rng(65);
    std::vector<Anchor> anchors;
    u32 t = 0;
    u32 q = 0;
    for (int i = 0; i < 200; ++i) {
        t += 5 + static_cast<u32>(rng.below(100));
        q += 5 + static_cast<u32>(rng.below(100));
        anchors.push_back({t, q, 15});
    }
    NullProbe probe;
    const auto chains = chainAnchors(anchors, ChainParams{}, probe);
    for (const auto& c : chains) {
        EXPECT_LE(c.score,
                  static_cast<i32>(c.anchors.size()) * 15);
        EXPECT_GE(c.score, 40);
        // Chain coordinates strictly increase on both sequences.
        for (size_t i = 1; i < c.anchors.size(); ++i) {
            EXPECT_LT(anchors[c.anchors[i - 1]].tpos,
                      anchors[c.anchors[i]].tpos);
            EXPECT_LT(anchors[c.anchors[i - 1]].qpos,
                      anchors[c.anchors[i]].qpos);
        }
    }
}

TEST(ChainDp, EmptyInput)
{
    EXPECT_TRUE(chainAnchors(std::vector<Anchor>{}).empty());
}

TEST(ChainDp, NoiseAnchorsDoNotChain)
{
    Rng rng(66);
    std::vector<Anchor> anchors;
    for (int i = 0; i < 100; ++i) {
        anchors.push_back({static_cast<u32>(rng.below(100'000)),
                           static_cast<u32>(rng.below(100'000)), 15});
    }
    std::sort(anchors.begin(), anchors.end(),
              [](const Anchor& a, const Anchor& b) {
                  return a.tpos < b.tpos ||
                         (a.tpos == b.tpos && a.qpos < b.qpos);
              });
    ChainParams p;
    p.min_score = 60;
    p.min_anchors = 4;
    const auto chains = chainAnchors(anchors, p);
    EXPECT_TRUE(chains.empty());
}

/**
 * Best chain score of a read-vs-read overlap, through the production
 * path the chain kernel and the de-novo example take: minimizers ->
 * anchors -> dispatched chaining. 0 when no chain is found.
 */
i32
bestChainScore(const std::string& target, const std::string& query)
{
    const MinimizerParams mp;
    const auto anchors =
        matchAnchors(extractMinimizers(encodeDna(target), mp),
                     extractMinimizers(encodeDna(query), mp), mp.k);
    const auto chains = chainAnchors(anchors);
    return chains.empty() ? 0 : chains.front().score;
}

TEST(Overlap, TrueOverlapScoresAboveUnrelated)
{
    Rng rng(67);
    const std::string genome = randomDna(rng, 12'000);
    const std::string a = genome.substr(0, 7000);
    const std::string b = genome.substr(4000, 7000);
    const std::string unrelated = randomDna(rng, 7000);

    const i32 overlap = bestChainScore(a, b);
    const i32 noise = bestChainScore(a, unrelated);
    EXPECT_GT(overlap, 1000);
    EXPECT_LT(noise, 100);
}

// ---- oracles for the wave-3 rewrites --------------------------------

/** Test-local copy of minimap2's hash64 (chain.cc keeps its own). */
u64
oracleHash64(u64 key, u64 mask)
{
    key = (~key + (key << 21)) & mask;
    key = key ^ (key >> 24);
    key = ((key + (key << 3)) + (key << 8)) & mask;
    key = key ^ (key >> 14);
    key = ((key + (key << 2)) + (key << 4)) & mask;
    key = key ^ (key >> 28);
    key = (key + (key << 31)) & mask;
    return key;
}

/**
 * Reference minimizer extraction by a full O(n*w) rescan of every
 * window: each window picks its first strictly-smallest hash.
 */
std::vector<Minimizer>
naiveMinimizers(std::span<const u8> codes, const MinimizerParams& p)
{
    std::vector<Minimizer> out;
    if (codes.size() < p.k) return out;
    const u64 mask = (u64{1} << (2 * p.k)) - 1;
    struct Cand
    {
        u64 hash = ~u64{0};
        u32 pos = 0;
        bool rev = false;
        bool valid = false;
    };
    const u64 num_kmers = codes.size() - p.k + 1;
    std::vector<Cand> cands(num_kmers);
    u64 fwd = 0;
    u64 rev = 0;
    u32 filled = 0;
    for (u64 i = 0; i < codes.size(); ++i) {
        const u8 c = codes[i];
        if (c >= 4) {
            filled = 0;
            fwd = rev = 0;
            continue;
        }
        fwd = ((fwd << 2) | c) & mask;
        rev = (rev >> 2) |
              (static_cast<u64>(3 - c) << (2 * (p.k - 1)));
        if (++filled < p.k) continue;
        if (fwd == rev) continue;
        Cand& cand = cands[i + 1 - p.k];
        cand.rev = rev < fwd;
        cand.hash = oracleHash64(cand.rev ? rev : fwd, mask);
        cand.pos = static_cast<u32>(i);
        cand.valid = true;
    }
    if (num_kmers < p.w) return out;
    for (u64 win = 0; win + p.w <= num_kmers; ++win) {
        const Cand* best = nullptr;
        for (u64 j = win; j < win + p.w; ++j) {
            if (!cands[j].valid) continue;
            if (!best || cands[j].hash < best->hash) {
                best = &cands[j];
            }
        }
        if (!best) continue;
        if (out.empty() || out.back().pos != best->pos ||
            out.back().hash != best->hash) {
            out.push_back({best->hash, best->pos, best->rev});
        }
    }
    return out;
}

/** Reference anchor join with the pre-sort unordered_multimap. */
std::vector<Anchor>
multimapAnchors(std::span<const Minimizer> target,
                std::span<const Minimizer> query, u32 span)
{
    std::unordered_multimap<u64, const Minimizer*> index;
    for (const auto& m : target) index.emplace(m.hash, &m);
    std::vector<Anchor> anchors;
    for (const auto& q : query) {
        auto [lo, hi] = index.equal_range(q.hash);
        for (auto it = lo; it != hi; ++it) {
            if (it->second->rev != q.rev) continue;
            anchors.push_back({it->second->pos, q.pos, span});
        }
    }
    std::sort(anchors.begin(), anchors.end(),
              [](const Anchor& a, const Anchor& b) {
                  return a.tpos < b.tpos ||
                         (a.tpos == b.tpos && a.qpos < b.qpos);
              });
    anchors.erase(std::unique(anchors.begin(), anchors.end()),
                  anchors.end());
    return anchors;
}

/** Random DNA with occasional ambiguous runs. */
std::string
dnaWithAmbiguity(Rng& rng, u64 len)
{
    std::string s;
    while (s.size() < len) {
        if (rng.chance(0.02)) {
            const u64 run = 1 + rng.below(2 * 15);
            s.append(run, 'N');
        } else {
            s += "ACGT"[rng.below(4)];
        }
    }
    return s;
}

/** `unit` repeated to `len` bases, with a few point substitutions. */
std::string
tandemRepeat(Rng& rng, const std::string& unit, u64 len, u32 mutations)
{
    std::string s;
    while (s.size() < len) s += unit;
    s.resize(len);
    for (u32 m = 0; m < mutations && len > 0; ++m) {
        s[rng.below(len)] = "ACGT"[rng.below(4)];
    }
    return s;
}

void
expectMatchesRescanOracle(std::span<const u8> codes,
                          const MinimizerParams& p)
{
    const auto fast = extractMinimizers(codes, p);
    const auto naive = naiveMinimizers(codes, p);
    ASSERT_EQ(fast.size(), naive.size())
        << "k=" << p.k << " w=" << p.w << " len=" << codes.size();
    for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(fast[i].hash, naive[i].hash);
        EXPECT_EQ(fast[i].pos, naive[i].pos);
        EXPECT_EQ(fast[i].rev, naive[i].rev);
    }
}

TEST(Minimizers, RingBufferMatchesNaiveRescanOracle)
{
    Rng rng(71);
    for (int rep = 0; rep < 60; ++rep) {
        MinimizerParams p;
        p.k = 4 + static_cast<u32>(rng.below(14));
        p.w = 1 + static_cast<u32>(rng.below(24));
        const u64 len = rng.below(3000);
        expectMatchesRescanOracle(
            encodeDna(dnaWithAmbiguity(rng, len)), p);
    }
    // Windows up to the 256 limit, and their edges.
    for (u32 w : {1u, 2u, 63u, 64u, 100u, 255u, 256u}) {
        MinimizerParams p;
        p.w = w;
        p.k = 4 + static_cast<u32>(rng.below(25));
        for (u64 len : {u64{p.k + w - 2}, u64{p.k + w - 1},
                        u64{p.k + w}, 3000 + rng.below(3000)}) {
            expectMatchesRescanOracle(
                encodeDna(dnaWithAmbiguity(rng, len)), p);
        }
    }
    // Homopolymers and tandem repeats tie hashes across whole windows
    // (the earliest tied k-mer must win), and periodic k-mers can be
    // their own reverse complement (skipped).
    const std::vector<std::string> units{"A", "C", "AT", "CG", "ACG",
                                         "ACGT", "AACCGGTT",
                                         "TTAGGG", "GATTACA"};
    for (const auto& unit : units) {
        for (u32 w : {1u, 5u, 10u, 37u, 256u}) {
            MinimizerParams p;
            p.w = w;
            p.k = 4 + static_cast<u32>(rng.below(25));
            const u64 len = 500 + rng.below(2500);
            expectMatchesRescanOracle(
                encodeDna(tandemRepeat(rng, unit, len, 0)), p);
            expectMatchesRescanOracle(
                encodeDna(tandemRepeat(rng, unit, len, 6)), p);
            // A repeat flanked by random sequence and an N run.
            const std::string mixed = randomDna(rng, 300) +
                                      tandemRepeat(rng, unit, len, 2) +
                                      "NNNNN" + randomDna(rng, 300);
            expectMatchesRescanOracle(encodeDna(mixed), p);
        }
    }
}

TEST(Anchors, HashJoinMatchesMultimapOracle)
{
    Rng rng(72);
    for (int rep = 0; rep < 40; ++rep) {
        const std::string genome = randomDna(rng, 4000);
        const u64 alen = 500 + rng.below(1500);
        const u64 blen = 500 + rng.below(1500);
        const std::string a =
            genome.substr(rng.below(4000 - alen), alen);
        const std::string b =
            genome.substr(rng.below(4000 - blen), blen);
        const auto ma = extractMinimizers(encodeDna(a), {});
        const auto mb = extractMinimizers(encodeDna(b), {});
        EXPECT_EQ(matchAnchors(ma, mb, 15),
                  multimapAnchors(ma, mb, 15));
    }
    // Repeat-rich reads: the same minimizer hash recurs many times on
    // both sides, so the join is many-to-many.
    for (int rep = 0; rep < 20; ++rep) {
        const std::string unit = randomDna(rng, 20 + rng.below(60));
        const std::string a = randomDna(rng, 200) +
                              tandemRepeat(rng, unit, 2000, 8) +
                              randomDna(rng, 200);
        const std::string b = tandemRepeat(rng, unit, 1500, 8) +
                              randomDna(rng, 100) +
                              tandemRepeat(rng, unit, 800, 4);
        MinimizerParams p;
        p.k = 11 + static_cast<u32>(rng.below(8));
        p.w = 1 + static_cast<u32>(rng.below(12));
        const auto ma = extractMinimizers(encodeDna(a), p);
        const auto mb = extractMinimizers(encodeDna(b), p);
        const auto anchors = matchAnchors(ma, mb, p.k);
        EXPECT_EQ(anchors, multimapAnchors(ma, mb, p.k));
        EXPECT_GT(anchors.size(), ma.size()) << "not many-to-many";
        // Against a's reverse complement each shared k-mer comes back
        // on the opposite strand (these reads hold no inverted
        // repeats), so the strand filter must drop every hash hit.
        const auto mrc =
            extractMinimizers(encodeDna(reverseComplement(a)), p);
        EXPECT_EQ(matchAnchors(ma, mrc, p.k),
                  multimapAnchors(ma, mrc, p.k));
        EXPECT_TRUE(matchAnchors(ma, mrc, p.k).empty());
    }
    EXPECT_TRUE(matchAnchors({}, {}, 15).empty());
}

TEST(ChainKernel, TinyAnchorCountsArePinned)
{
    // prepare() synthesises noisy read pairs from one seeded RNG
    // stream and joins their minimizers. Any change to the draw order,
    // the sketch or the join moves these per-pair anchor counts.
    auto kernel = createKernel("chain");
    kernel->prepare(DatasetSize::kTiny);
    const std::vector<u64> expected{34, 53, 61, 28, 43, 22, 24,
                                    15, 59, 32, 44, 27, 26, 28,
                                    45, 23, 96, 64, 40, 86};
    EXPECT_EQ(kernel->taskWork(), expected);
}

TEST(Anchors, SurviveSourceMinimizerReallocationAndDeath)
{
    // matchAnchors once stored raw Minimizer pointers in its join
    // index; the anchors it returns must stay valid (plain values)
    // after the input vectors reallocate or are destroyed.
    Rng rng(73);
    const std::string genome = randomDna(rng, 5000);
    std::vector<Anchor> anchors;
    {
        auto mt = std::make_unique<std::vector<Minimizer>>(
            extractMinimizers(encodeDna(genome.substr(0, 3500)), {}));
        auto mq = std::make_unique<std::vector<Minimizer>>(
            extractMinimizers(encodeDna(genome.substr(1500, 3500)),
                              {}));
        anchors = matchAnchors(*mt, *mq, 15);
        // Force reallocation, then destruction, of both sources.
        mt->resize(mt->size() * 4 + 64);
        mq->resize(mq->size() * 4 + 64);
        mt.reset();
        mq.reset();
    }
    ASSERT_GT(anchors.size(), 20u);
    const std::vector<Anchor> snapshot = anchors;
    const auto chains = chainAnchors(anchors);
    EXPECT_EQ(anchors, snapshot);
    ASSERT_FALSE(chains.empty());
    EXPECT_GT(chains.front().score, 0);
}

// ---- chain engine: scalar/SIMD equivalence --------------------------

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

/** Anchor sets covering the DP's regimes: near-diagonal chains with
 *  gaps and band violations, uniform noise, equal-score ties. */
std::vector<Anchor>
randomAnchorSet(Rng& rng, u32 max_coord)
{
    const u64 n = rng.below(120);
    std::vector<Anchor> anchors;
    u32 t = static_cast<u32>(rng.below(1000));
    u32 q = static_cast<u32>(rng.below(1000));
    for (u64 i = 0; i < n; ++i) {
        switch (rng.below(4)) {
          case 0: // colinear step, chainable
            t += 1 + static_cast<u32>(rng.below(60));
            q += 1 + static_cast<u32>(rng.below(60));
            break;
          case 1: // big gap (max_dist / band stress)
            t += static_cast<u32>(rng.below(8000));
            q += static_cast<u32>(rng.below(8000));
            break;
          case 2: // tie fodder: symmetric off-diagonal pair
            anchors.push_back({t + 30, q + 20, 15});
            t += 20;
            q += 30;
            break;
          default: // noise anywhere
            anchors.push_back(
                {static_cast<u32>(rng.below(max_coord)),
                 static_cast<u32>(rng.below(max_coord)), 15});
            break;
        }
        const u32 span = 10 + static_cast<u32>(rng.below(10));
        anchors.push_back({t % max_coord, q % max_coord, span});
    }
    std::sort(anchors.begin(), anchors.end(),
              [](const Anchor& a, const Anchor& b) {
                  return a.tpos < b.tpos ||
                         (a.tpos == b.tpos && a.qpos < b.qpos);
              });
    anchors.erase(std::unique(anchors.begin(), anchors.end()),
                  anchors.end());
    return anchors;
}

ChainParams
randomChainParams(Rng& rng)
{
    ChainParams p;
    switch (rng.below(4)) {
      case 0: p.pred_window = 5; break;
      case 1: p.pred_window = 25; break;
      case 2: p.pred_window = 64; break;
      default: p.pred_window = 200; break;
    }
    if (rng.chance(0.3)) p.max_dist = 500 + rng.below(5000);
    if (rng.chance(0.3)) p.max_band = 50 + rng.below(500);
    if (rng.chance(0.2)) p.gap_scale = 0.05f;
    return p;
}

TEST(ChainEngine, RandomizedMatchesScalarAtEveryLevel)
{
    LevelGuard guard;
    for (const simd::SimdLevel level : testableLevels()) {
        simd::setSimdLevel(level);
        Rng rng(74); // same cases at every level
        for (int rep = 0; rep < 400; ++rep) {
            const auto anchors = randomAnchorSet(rng, 200'000);
            const ChainParams p = randomChainParams(rng);

            const u32 n = static_cast<u32>(anchors.size());
            std::vector<i32> f_ref(n);
            std::vector<i32> parent_ref(n, -1);
            NullProbe probe;
            chainDp(std::span<const Anchor>(anchors), p,
                    std::span<i32>(f_ref),
                    std::span<i32>(parent_ref), probe);

            std::vector<i32> f_eng(n);
            std::vector<i32> parent_eng(n, -1);
            simd::chainDpEngine(anchors, p, f_eng, parent_eng);
            ASSERT_EQ(f_eng, f_ref)
                << "level=" << simd::simdLevelName(level)
                << " rep=" << rep << " n=" << n;
            ASSERT_EQ(parent_eng, parent_ref)
                << "level=" << simd::simdLevelName(level)
                << " rep=" << rep << " n=" << n;

            const auto chains_ref = chainAnchors(anchors, p, probe);
            const auto chains_eng = chainAnchors(anchors, p);
            ASSERT_EQ(chains_eng.size(), chains_ref.size());
            for (size_t c = 0; c < chains_ref.size(); ++c) {
                EXPECT_EQ(chains_eng[c].score, chains_ref[c].score);
                EXPECT_EQ(chains_eng[c].anchors,
                          chains_ref[c].anchors);
            }
        }
    }
}

TEST(ChainEngine, UninstrumentedMatchesProbeTemplateAtEveryLevel)
{
    // chainAnchors(anchors) is the dispatched production path; with a
    // recording probe the same call runs the instrumented template.
    // Chains of overlapping reads (default parameters, as the de-novo
    // example calls it) must agree exactly.
    LevelGuard guard;
    Rng rng(76);
    std::vector<std::vector<Anchor>> sets;
    const MinimizerParams mp;
    for (int i = 0; i < 8; ++i) {
        const std::string a = randomDna(rng, 6000);
        const std::string b = a.substr(2000) + randomDna(rng, 2000);
        sets.push_back(matchAnchors(extractMinimizers(encodeDna(a), mp),
                                    extractMinimizers(encodeDna(b), mp),
                                    mp.k));
        ASSERT_FALSE(sets.back().empty());
    }
    std::vector<std::vector<Chain>> oracle;
    for (const auto& anchors : sets) {
        CharProbe probe;
        oracle.push_back(chainAnchors(anchors, ChainParams{}, probe));
    }
    for (const simd::SimdLevel level : testableLevels()) {
        simd::setSimdLevel(level);
        for (size_t i = 0; i < sets.size(); ++i) {
            const auto chains = chainAnchors(sets[i]);
            ASSERT_EQ(chains.size(), oracle[i].size())
                << "level=" << simd::simdLevelName(level)
                << " set=" << i;
            for (size_t c = 0; c < chains.size(); ++c) {
                EXPECT_EQ(chains[c].score, oracle[i][c].score);
                EXPECT_EQ(chains[c].anchors, oracle[i][c].anchors);
            }
        }
    }
}

TEST(ChainEngine, EqualScoresKeepLargestPredecessor)
{
    // Two symmetric predecessors produce identical candidate scores;
    // the scalar tie-break keeps the larger index. The engine must
    // agree at every level.
    LevelGuard guard;
    const std::vector<Anchor> anchors = {
        {50, 60, 15}, {60, 50, 15}, {100, 100, 15}};
    const ChainParams p;
    for (const simd::SimdLevel level : testableLevels()) {
        simd::setSimdLevel(level);
        std::vector<i32> f(3);
        std::vector<i32> parent(3, -1);
        simd::chainDpEngine(anchors, p, f, parent);
        EXPECT_EQ(parent[2], 1)
            << "level=" << simd::simdLevelName(level);
    }
}

TEST(ChainEngine, FallsBackAboveCoordinateGate)
{
    // Coordinates at or beyond 2^30 cannot be differenced in i32
    // lanes; the engine must route them to the scalar DP and still
    // match it exactly.
    LevelGuard guard;
    Rng rng(75);
    const u32 base = simd::kChainMaxSimdCoord;
    std::vector<Anchor> anchors;
    u32 t = base - 500;
    u32 q = base + 500;
    for (int i = 0; i < 60; ++i) {
        t += 1 + static_cast<u32>(rng.below(50));
        q += 1 + static_cast<u32>(rng.below(50));
        anchors.push_back({t, q, 15});
    }
    const ChainParams p;
    const u32 n = static_cast<u32>(anchors.size());
    std::vector<i32> f_ref(n);
    std::vector<i32> parent_ref(n, -1);
    NullProbe probe;
    chainDp(std::span<const Anchor>(anchors), p,
            std::span<i32>(f_ref), std::span<i32>(parent_ref),
            probe);
    for (const simd::SimdLevel level : testableLevels()) {
        simd::setSimdLevel(level);
        std::vector<i32> f(n);
        std::vector<i32> parent(n, -1);
        simd::chainDpEngine(anchors, p, f, parent);
        EXPECT_EQ(f, f_ref);
        EXPECT_EQ(parent, parent_ref);
    }
}

TEST(Overlap, NoisyLongReadsStillChain)
{
    // ONT-like 10 % errors: chaining must still find the overlap.
    Rng rng(68);
    std::string genome = randomDna(rng, 10'000);
    auto corrupt = [&](std::string s) {
        std::string out;
        for (char c : s) {
            if (rng.chance(0.05)) continue;          // deletion
            if (rng.chance(0.05)) out += "ACGT"[rng.below(4)]; // ins
            out += rng.chance(0.03) ? "ACGT"[rng.below(4)] : c;
        }
        return out;
    };
    const std::string a = corrupt(genome.substr(0, 6000));
    const std::string b = corrupt(genome.substr(3000, 6000));
    const i32 score = bestChainScore(a, b);
    EXPECT_GT(score, 200);
}

} // namespace
} // namespace gb
