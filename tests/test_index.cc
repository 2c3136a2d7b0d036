/**
 * @file
 * Tests for suffix-array construction and the FMD-index / SMEM search,
 * including property tests against brute-force oracles.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "index/fm_index.h"
#include "index/suffix_array.h"
#include "io/dna.h"
#include "simd/simd.h"
#include "util/rng.h"

namespace gb {
namespace {

std::vector<u8>
textOf(const std::string& s)
{
    std::vector<u8> t;
    for (char c : s) t.push_back(static_cast<u8>(c - 'a' + 1));
    t.push_back(0);
    return t;
}

TEST(SuffixArray, Banana)
{
    // "banana$": suffixes sorted: $, a$, ana$, anana$, banana$, na$,
    // nana$ -> SA = 6 5 3 1 0 4 2.
    const auto t = textOf("banana");
    const auto sa = buildSuffixArray(t);
    const std::vector<u32> expected{6, 5, 3, 1, 0, 4, 2};
    EXPECT_EQ(sa, expected);
}

TEST(SuffixArray, SingleChar)
{
    const auto t = textOf("a");
    const auto sa = buildSuffixArray(t);
    const std::vector<u32> expected{1, 0};
    EXPECT_EQ(sa, expected);
}

TEST(SuffixArray, RejectsMissingSentinel)
{
    std::vector<u8> t{1, 2, 3};
    EXPECT_THROW(buildSuffixArray(t), InputError);
}

TEST(SuffixArray, RejectsInteriorSentinel)
{
    std::vector<u8> t{1, 0, 2, 0};
    EXPECT_THROW(buildSuffixArray(t), InputError);
}

class SuffixArrayRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(SuffixArrayRandom, MatchesNaiveOracle)
{
    Rng rng(GetParam());
    const u64 len = 1 + rng.below(400);
    const u32 alphabet = 2 + static_cast<u32>(rng.below(5));
    std::vector<u8> t(len + 1);
    for (u64 i = 0; i < len; ++i) {
        t[i] = 1 + static_cast<u8>(rng.below(alphabet));
    }
    t[len] = 0;
    const auto fast = buildSuffixArray(t);
    const auto naive = buildSuffixArrayNaive(t);
    EXPECT_EQ(fast, naive) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuffixArrayRandom,
                         ::testing::Range(1, 25));

/** Fibonacci word over {a, b} of at least `len` symbols. */
std::string
fibonacciWord(size_t len)
{
    std::string prev = "a";
    std::string cur = "ab";
    while (cur.size() < len) {
        std::string next = cur + prev;
        prev = std::move(cur);
        cur = std::move(next);
    }
    return cur;
}

TEST(SuffixArray, RepetitiveText)
{
    // Repetitive inputs stress the recursion: a Fibonacci word's
    // reduced text is again Fibonacci-like, so at ~2.6k symbols it
    // recurses six levels deep; the period-2/3/5 texts recurse once or
    // twice; the unary and near-unary runs have at most one LMS
    // substring besides the sentinel's.
    std::string period5;
    for (int i = 0; i < 50; ++i) period5 += "abcab";
    const std::vector<std::string> texts{
        period5,
        fibonacciWord(2000),
        std::string(1000, 'a'),
        [] {
            std::string s;
            for (int i = 0; i < 500; ++i) s += "ab";
            return s;
        }(),
        [] {
            std::string s;
            for (int i = 0; i < 400; ++i) s += "abc";
            return s + "ab";
        }(),
        std::string(300, 'b') + "a" + std::string(300, 'b'),
    };
    for (const auto& str : texts) {
        const auto t = textOf(str);
        EXPECT_EQ(buildSuffixArray(t), buildSuffixArrayNaive(t))
            << str.substr(0, 32) << "... (" << str.size() << ")";
    }
}

TEST(SuffixArray, FullByteAlphabetMatchesNaiveOracle)
{
    // Symbols up to 255. Over a 255-symbol alphabet these random texts
    // have all-distinct LMS substrings, so the reduced text is named
    // uniquely (names == m) and ordered without recursing; so is the
    // zigzag 1, 255, 2, 254, ...
    Rng rng(31);
    for (int rep = 0; rep < 20; ++rep) {
        const u64 len = 1 + rng.below(600);
        std::vector<u8> t(len + 1);
        for (u64 i = 0; i < len; ++i) {
            t[i] = static_cast<u8>(1 + rng.below(255));
        }
        t[len] = 0;
        EXPECT_EQ(buildSuffixArray(t), buildSuffixArrayNaive(t))
            << "rep " << rep;
    }
    std::vector<u8> zigzag;
    for (u32 c = 1; c <= 255; ++c) {
        zigzag.push_back(static_cast<u8>(c));
        zigzag.push_back(static_cast<u8>(256 - c));
    }
    zigzag.push_back(0);
    EXPECT_EQ(buildSuffixArray(zigzag), buildSuffixArrayNaive(zigzag));
}

TEST(SuffixArray, RejectsEmptyText)
{
    EXPECT_THROW(buildSuffixArray({}), InputError);
}

TEST(SuffixArray, TwoStrandGenomeTextIsSortedPermutation)
{
    // FmIndex::build's layout: ref (codes+2), '#' (1), reverse
    // complement, '$' (0). At 400k symbols the naive oracle is too
    // slow; a permutation whose adjacent suffixes strictly increase
    // is the suffix array, and random DNA keeps each comparison short.
    Rng rng(32);
    const u64 ref_len = 200'000;
    const u64 n = 2 * ref_len + 2;
    std::vector<u8> t(n);
    for (u64 i = 0; i < ref_len; ++i) {
        const u8 code = static_cast<u8>(rng.below(4));
        t[i] = code + 2;
        t[n - 2 - i] = static_cast<u8>((3 - code) + 2);
    }
    t[ref_len] = 1;
    t[n - 1] = 0;
    const auto sa = buildSuffixArray(t);
    ASSERT_EQ(sa.size(), n);

    std::vector<bool> seen(n, false);
    for (u32 pos : sa) {
        ASSERT_LT(pos, n);
        ASSERT_FALSE(seen[pos]) << "duplicate " << pos;
        seen[pos] = true;
    }
    // Each suffix sorts before the next: at their first difference,
    // or as its proper prefix. (std::mismatch, not lexicographical_
    // compare: on u8 that lowers to a memcmp over the whole remaining
    // text, which TSan checks byte for byte.)
    for (u64 i = 0; i + 1 < n; ++i) {
        const auto [a, b] = std::mismatch(t.begin() + sa[i], t.end(),
                                          t.begin() + sa[i + 1], t.end());
        ASSERT_TRUE(b != t.end() && (a == t.end() || *a < *b))
            << "rows " << i << ", " << i + 1;
    }
}

TEST(Bwt, InvertibleViaLf)
{
    // Reconstruct the text from its BWT using LF mapping.
    const auto t = textOf("mississippi");
    const auto sa = buildSuffixArray(t);
    const auto bwt = bwtFromSuffixArray(t, sa);

    const u32 n = static_cast<u32>(t.size());
    std::vector<u32> counts(32, 0);
    for (u8 c : bwt) ++counts[c];
    std::vector<u32> c_arr(33, 0);
    for (u32 c = 0; c < 32; ++c) c_arr[c + 1] = c_arr[c] + counts[c];

    auto occ = [&](u8 sym, u32 i) {
        u32 k = 0;
        for (u32 j = 0; j < i; ++j) k += bwt[j] == sym;
        return k;
    };

    // Walk backwards from the sentinel row.
    std::vector<u8> rebuilt(n);
    u32 row = 0; // row of the sentinel-starting suffix... SA[0] = n-1
    for (u32 step = 0; step < n; ++step) {
        const u8 sym = bwt[row];
        rebuilt[n - 1 - step] = sym;
        row = c_arr[sym] + occ(sym, row);
    }
    // rebuilt, rotated so sentinel is last, equals t.
    std::vector<u8> expected = t;
    std::rotate(expected.begin(), expected.end() - 1, expected.end());
    EXPECT_EQ(rebuilt, expected);
}

// ---------------------------------------------------------------------
// FM-index

/** Count occurrences of pattern on both strands by brute force. */
u64
bruteCount(const std::string& ref, const std::string& pattern)
{
    auto countIn = [](const std::string& text, const std::string& pat) {
        u64 n = 0;
        size_t pos = 0;
        while ((pos = text.find(pat, pos)) != std::string::npos) {
            ++n;
            ++pos;
        }
        return n;
    };
    return countIn(ref, pattern) +
           countIn(ref, reverseComplement(pattern));
}

std::string
randomDna(Rng& rng, u64 len)
{
    std::string s(len, 'A');
    for (auto& c : s) c = "ACGT"[rng.below(4)];
    return s;
}

TEST(FmIndex, CountSimple)
{
    const std::string ref = "ACGTACGTAC";
    FmIndex fm = FmIndex::build(ref);
    // "ACGT" occurs twice forward; rc("ACGT") = "ACGT" occurs twice ->
    // both-strand count 4.
    EXPECT_EQ(fm.count("ACGT"), 4u);
    EXPECT_EQ(fm.count("AAAA"), bruteCount(ref, "AAAA"));
    EXPECT_EQ(fm.count("ACGTACGTAC"), 1u + 0u);
}

TEST(FmIndex, RejectsEmptyAndNonAcgt)
{
    EXPECT_THROW(FmIndex::build(""), InputError);
    EXPECT_THROW(FmIndex::build("ACGN"), InputError);
}

class FmCountRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(FmCountRandom, MatchesBruteForce)
{
    Rng rng(1000 + GetParam());
    // Small alphabet-rich text so patterns repeat.
    const std::string ref = randomDna(rng, 200 + rng.below(300));
    FmIndex fm = FmIndex::build(ref);
    for (int trial = 0; trial < 30; ++trial) {
        const u64 plen = 1 + rng.below(8);
        std::string pattern;
        if (rng.chance(0.7) && ref.size() > plen) {
            const u64 pos = rng.below(ref.size() - plen);
            pattern = ref.substr(pos, plen);
        } else {
            pattern = randomDna(rng, plen);
        }
        EXPECT_EQ(fm.count(pattern), bruteCount(ref, pattern))
            << "pattern " << pattern;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmCountRandom, ::testing::Range(1, 13));

TEST(FmIndex, LocateFindsAllForwardSites)
{
    Rng rng(55);
    const std::string ref = randomDna(rng, 500);
    FmIndex fm = FmIndex::build(ref);

    const std::string pattern = ref.substr(100, 12);
    // Backward-search interval via count path, then locate.
    NullProbe probe;
    std::vector<u8> codes = encodeDna(pattern);
    std::array<BiInterval, 4> ok;
    BiInterval ik = fm.baseInterval(codes.back());
    ik.begin = 0;
    ik.end = static_cast<i32>(codes.size());
    for (i64 i = static_cast<i64>(codes.size()) - 2; i >= 0; --i) {
        fm.extendBackward(ik, ok, probe);
        ik = ok[codes[i]];
    }
    ASSERT_GT(ik.s, 0u);

    const auto hits = fm.locate(ik);
    EXPECT_EQ(hits.size(), ik.s);
    bool found_origin = false;
    for (const auto& hit : hits) {
        ASSERT_LE(hit.pos + pattern.size(), ref.size());
        const std::string at_site = ref.substr(hit.pos, pattern.size());
        if (hit.reverse) {
            EXPECT_EQ(reverseComplement(at_site), pattern);
        } else {
            EXPECT_EQ(at_site, pattern);
            if (hit.pos == 100) found_origin = true;
        }
    }
    EXPECT_TRUE(found_origin);
}

TEST(FmIndex, OneContinuationMatchesFullExtension)
{
    // smemsAt takes the one-continuation steps; each must equal the
    // matching slot of the 4-way step in result and probe traffic.
    Rng rng(56);
    const std::string ref = randomDna(rng, 3000);
    const FmIndex fm = FmIndex::build(ref);
    auto same = [](const BiInterval& a, const BiInterval& b) {
        return std::tie(a.k, a.l, a.s, a.begin, a.end) ==
               std::tie(b.k, b.l, b.s, b.begin, b.end);
    };
    auto sameTraffic = [](const CharProbe& a, const CharProbe& b) {
        return a.counts().by_class == b.counts().by_class &&
               a.loadBytes() == b.loadBytes();
    };

    u64 empty = 0;
    for (int iter = 0; iter < 500; ++iter) {
        // A random interval: a random base extended backward by up to
        // 12 random bases (narrow, wide and empty intervals all occur).
        NullProbe walk;
        BiInterval ik = fm.baseInterval(static_cast<u8>(rng.below(4)));
        ik.begin = static_cast<i32>(rng.below(50));
        ik.end = ik.begin + 1 + static_cast<i32>(rng.below(50));
        const u64 steps = rng.below(13);
        for (u64 j = 0; j < steps && ik.s > 0; ++j) {
            ik = fm.extendBackwardOneFused(
                ik, static_cast<u8>(rng.below(4)), walk);
        }
        if (ik.s == 0) ++empty;

        for (u8 c = 0; c < 4; ++c) {
            std::array<BiInterval, 4> all;
            CharProbe full;
            fm.extendBackward(ik, all, full);
            CharProbe one;
            const BiInterval got = fm.extendBackwardOneFused(ik, c, one);
            EXPECT_TRUE(same(got, all[c])) << "backward c=" << int(c);
            EXPECT_TRUE(sameTraffic(one, full))
                << "backward c=" << int(c);

            CharProbe full_fwd;
            fm.extendForward(ik, all, full_fwd);
            CharProbe one_fwd;
            const BiInterval got_fwd =
                fm.extendForwardOneFused(ik, c, one_fwd);
            EXPECT_TRUE(same(got_fwd, all[c])) << "forward c=" << int(c);
            EXPECT_TRUE(sameTraffic(one_fwd, full_fwd))
                << "forward c=" << int(c);
        }
    }
    EXPECT_GT(empty, 0u);
    EXPECT_LT(empty, 500u);
}

// Brute-force SMEM oracle: all maximal exact matches through x that are
// supermaximal (not contained in a longer match through another span).
struct OracleMem
{
    i32 begin;
    i32 end;

    bool operator==(const OracleMem&) const = default;
    bool operator<(const OracleMem& o) const
    {
        return begin < o.begin || (begin == o.begin && end < o.end);
    }
};

std::vector<OracleMem>
oracleSmems(const std::string& ref, const std::string& query, i32 x)
{
    const i32 len = static_cast<i32>(query.size());
    // match[b][e]: query[b, e) occurs in ref (either strand)?
    auto occurs = [&](i32 b, i32 e) {
        return bruteCount(ref, query.substr(b, e - b)) > 0;
    };
    // Collect maximal matches covering x: extend right maximally for
    // each b <= x, then check left-maximality.
    std::vector<OracleMem> mems;
    for (i32 b = 0; b <= x; ++b) {
        if (!occurs(b, x + 1)) continue;
        i32 e = x + 1;
        while (e < len && occurs(b, e + 1)) ++e;
        // Left-maximal: cannot extend b-1 keeping this e.
        if (b > 0 && occurs(b - 1, e)) continue;
        mems.push_back({b, e});
    }
    // Keep supermaximal only (not contained in another).
    std::vector<OracleMem> out;
    for (const auto& m : mems) {
        bool contained = false;
        for (const auto& o : mems) {
            if (&o != &m && o.begin <= m.begin && m.end <= o.end) {
                contained = true;
            }
        }
        if (!contained) out.push_back(m);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

class SmemRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(SmemRandom, MatchesOracle)
{
    Rng rng(2000 + GetParam());
    const std::string ref = randomDna(rng, 300);
    FmIndex fm = FmIndex::build(ref);

    // Query: a mutated slice of the reference so matches are nontrivial.
    const u64 qlen = 30 + rng.below(40);
    const u64 start = rng.below(ref.size() - qlen);
    std::string query = ref.substr(start, qlen);
    for (auto& c : query) {
        if (rng.chance(0.08)) c = "ACGT"[rng.below(4)];
    }

    const std::vector<u8> codes = encodeDna(query);
    const i32 x = static_cast<i32>(rng.below(qlen));

    NullProbe probe;
    std::vector<Smem> mems;
    SmemScratch scratch;
    fm.smemsAt(std::span<const u8>(codes), x, 1, mems, scratch, probe);

    std::vector<OracleMem> got;
    for (const auto& m : mems) got.push_back({m.begin, m.end});
    std::sort(got.begin(), got.end());

    const auto expected = oracleSmems(ref, query, x);
    EXPECT_EQ(got, expected) << "seed " << GetParam() << " x=" << x;

    // Every reported interval size matches brute-force counting.
    for (const auto& m : mems) {
        EXPECT_EQ(m.s,
                  bruteCount(ref, query.substr(m.begin, m.length())));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmemRandom, ::testing::Range(1, 21));

TEST(FmIndex, SmemsCoverWholeReadOnPerfectMatch)
{
    Rng rng(77);
    const std::string ref = randomDna(rng, 1000);
    FmIndex fm = FmIndex::build(ref);
    const std::string query = ref.substr(200, 100);
    const auto codes = encodeDna(query);

    NullProbe probe;
    std::vector<Smem> mems;
    fm.smems(std::span<const u8>(codes), 19, mems, probe);
    ASSERT_FALSE(mems.empty());
    // The full-length match must be among the SMEMs.
    bool full = false;
    for (const auto& m : mems) {
        if (m.begin == 0 && m.end == 100) full = true;
    }
    EXPECT_TRUE(full);
}

TEST(FmIndex, OccBlocksAreCompact)
{
    Rng rng(88);
    const std::string ref = randomDna(rng, 4096);
    FmIndex fm = FmIndex::build(ref);
    // One 64-byte line per 64 symbols (1 byte per symbol), for the
    // n / 64 + 1 blocks that cover positions 0..n.
    EXPECT_EQ(fm.occBytes(), (fm.bwtLength() / 64 + 1) * 64);
    EXPECT_EQ(fm.occLines().size() * sizeof(u64), fm.occBytes());
    EXPECT_EQ(reinterpret_cast<uintptr_t>(fm.occLines().data()) % 64, 0u);
}

TEST(FmIndex, OccAllBlockAlignedChargesExactlyOneAccess)
{
    Rng rng(89);
    const std::string ref = randomDna(rng, 1000);
    const FmIndex fm = FmIndex::build(ref);
    const u32 block = fm.blockLen();

    // Aligned or not, a lookup is one access: its 64-byte occ line
    // (two 32-byte load ops in the probe's model).
    for (const u64 i : {u64{2} * block, u64{2} * block + 5}) {
        CharProbe probe;
        fm.occAll(i, probe);
        EXPECT_EQ(probe.counts()[OpClass::kLoad], detail::memOpsFor(64))
            << i;
        EXPECT_EQ(probe.loadBytes(), 64u) << i;
    }

    // Both must agree with a plain symbol count from block start.
    NullProbe probe;
    const auto at = fm.occAll(u64{2} * block + 5, probe);
    auto expect = fm.occAll(u64{2} * block, probe);
    for (u64 j = 2 * block; j < 2 * block + 5; ++j) {
        ++expect[fm.symbolAt(j)];
    }
    EXPECT_EQ(at, expect);
}

/** The text FmIndex::build indexes, computed without the index. */
std::vector<u8>
twoStrandText(const std::string& ref)
{
    const u64 n = 2 * ref.size() + 2;
    std::vector<u8> t(n);
    for (u64 i = 0; i < ref.size(); ++i) {
        const u8 code = baseCode(ref[i]);
        t[i] = code + 2;
        t[n - 2 - i] = static_cast<u8>((3 - code) + 2);
    }
    t[ref.size()] = FmIndex::kSeparator;
    t[n - 1] = FmIndex::kSentinel;
    return t;
}

/** Its BWT. */
std::vector<u8>
twoStrandBwt(const std::string& ref)
{
    const std::vector<u8> t = twoStrandText(ref);
    return bwtFromSuffixArray(t, buildSuffixArray(t));
}

TEST(FmIndexLines, OccMatchesByteLoopAtEveryPosition)
{
    // n = 2 * 1000 + 2 = 2002 is a multiple of none of the spacings,
    // so the last block is partial; positions run through n itself.
    Rng rng(90);
    const std::string ref = randomDna(rng, 1000);
    const std::vector<u8> bwt = twoStrandBwt(ref);
    for (const u32 block_len : {64u, 128u, 448u}) {
        const FmIndex fm = FmIndex::build(ref, block_len);
        ASSERT_EQ(fm.bwtLength(), bwt.size());
        ASSERT_NE(fm.bwtLength() % 64, 0u);
        std::array<u64, FmIndex::kAlphabet> want{};
        NullProbe probe;
        for (u64 i = 0; i <= bwt.size(); ++i) {
            ASSERT_EQ(fm.occAll(i, probe), want)
                << "block_len " << block_len << " i " << i;
            if (i == bwt.size()) break;
            ASSERT_EQ(fm.symbolAt(i), bwt[i]) << i;
            ++want[bwt[i]];
        }
        for (u32 c = 0; c < FmIndex::kAlphabet; ++c) {
            EXPECT_EQ(fm.cumulative()[c + 1] - fm.cumulative()[c],
                      want[c]);
        }
    }
}

TEST(FmIndexLines, RejectsBlockLenNotMultipleOf64)
{
    for (const u32 block_len : {0u, 32u, 96u, 100u, 4160u}) {
        EXPECT_THROW(FmIndex::build("ACGTACGT", block_len), InputError)
            << block_len;
    }
    EXPECT_NO_THROW(FmIndex::build("ACGTACGT", 4096));
}

TEST(FmIndexLines, OccAllPairWithinAndAcrossBlocks)
{
    Rng rng(91);
    const std::string ref = randomDna(rng, 700);
    for (const u32 block_len : {64u, 448u}) {
        const FmIndex fm = FmIndex::build(ref, block_len);
        const std::vector<std::pair<u64, u64>> pairs{
            {0, 0},
            {3, 60},                          // one line
            {block_len + 1, block_len + 63},  // one line, not block 0
            {5, block_len + 5},               // adjacent blocks
            {block_len - 1, block_len},       // straddles a boundary
            {7, fm.bwtLength()},              // first to last block
            {fm.bwtLength(), fm.bwtLength()},
        };
        for (const auto& [lo, hi] : pairs) {
            CharProbe single;
            const auto want_lo = fm.occAll(lo, single);
            const auto want_hi = fm.occAll(hi, single);
            CharProbe paired;
            std::array<u64, FmIndex::kAlphabet> got_lo;
            std::array<u64, FmIndex::kAlphabet> got_hi;
            fm.occAllPair(lo, hi, got_lo, got_hi, paired);
            EXPECT_EQ(got_lo, want_lo) << lo << ", " << hi;
            EXPECT_EQ(got_hi, want_hi) << lo << ", " << hi;
            EXPECT_EQ(paired.counts().by_class, single.counts().by_class);
            EXPECT_EQ(paired.loadBytes(), single.loadBytes());
        }
    }
}

using HitList = std::vector<std::pair<u64, bool>>;

HitList
hitList(const std::vector<FmIndex::Hit>& hits)
{
    HitList out;
    for (const auto& hit : hits) out.emplace_back(hit.pos, hit.reverse);
    return out;
}

TEST(FmIndexSamples, LocateMatchesFullSuffixArray)
{
    // The unsampled oracle: locate()'s hits for rows [k, k + limit)
    // read straight from the full SA, mapped and sorted as locate()
    // maps and sorts them.
    Rng rng(92);
    const std::string ref = randomDna(rng, 3000);
    const u64 len = ref.size();
    const std::vector<u8> text = twoStrandText(ref);
    const std::vector<u32> sa = buildSuffixArray(text);
    const u64 n = sa.size();
    auto oracle = [&](u64 k, u64 limit, u64 match_len) {
        HitList hits;
        for (u64 row = k; row < k + limit; ++row) {
            const u64 pos = sa[row];
            if (pos < len) {
                hits.emplace_back(pos, false);
            } else {
                hits.emplace_back(len - (pos - (len + 1)) - match_len,
                                  true);
            }
        }
        std::sort(hits.begin(), hits.end());
        return hits;
    };

    std::vector<u32> samples;
    for (u32 pos : sa) {
        if (pos % FmIndex::kSaSampleRate == 0) samples.push_back(pos);
    }
    // Bytes per block: only block_len >= 256 outgrows the lines the
    // planes alone need.
    const std::map<u32, u64> block_bytes{
        {64, 64}, {128, 128}, {192, 128}, {256, 192}};
    for (const auto& [block_len, bytes] : block_bytes) {
        const FmIndex fm = FmIndex::build(ref, block_len);
        EXPECT_EQ(fm.occBytes(), (n / block_len + 1) * bytes);
        ASSERT_EQ(fm.saSamples().size(), (n + 31) / 32);
        EXPECT_TRUE(std::equal(samples.begin(), samples.end(),
                               fm.saSamples().begin(),
                               fm.saSamples().end()))
            << "block_len " << block_len;

        // Every row whose suffix starts with a base, as one-base hits.
        BiInterval all;
        all.k = fm.cumulative()[2];
        all.s = n - all.k;
        all.end = 1;
        EXPECT_EQ(hitList(fm.locate(all)), oracle(all.k, all.s, 1))
            << "block_len " << block_len;

        // Random patterns from both strands, some with a hit limit.
        for (int trial = 0; trial < 100; ++trial) {
            const u64 plen = 1 + rng.below(24);
            std::string pattern = ref.substr(rng.below(len - plen), plen);
            if (rng.chance(0.5)) pattern = reverseComplement(pattern);
            const std::vector<u8> codes = encodeDna(pattern);
            NullProbe probe;
            std::array<BiInterval, 4> ok;
            BiInterval ik = fm.baseInterval(codes.back());
            ik.end = static_cast<i32>(plen);
            for (i64 i = static_cast<i64>(plen) - 2; i >= 0; --i) {
                fm.extendBackward(ik, ok, probe);
                ik = ok[codes[i]];
            }
            ASSERT_GT(ik.s, 0u) << pattern;
            const u64 max_hits = rng.chance(0.3) ? 1 + rng.below(4) : 0;
            const u64 limit = max_hits ? std::min(max_hits, ik.s) : ik.s;
            EXPECT_EQ(hitList(fm.locate(ik, max_hits)),
                      oracle(ik.k, limit, plen))
                << "block_len " << block_len << " pattern " << pattern;
        }
    }
}

/** Restores the process-global dispatch level on scope exit. */
struct LevelGuard
{
    ~LevelGuard() { simd::resetSimdLevel(); }
};

TEST(FmIndexLines, SmemsAndLocateIdenticalAtScalarAndDefaultLevel)
{
    // smems(..., NullProbe&) runs the POPCNT copy at sse4/avx2 and the
    // generic instantiation at scalar: both must give the same SMEMs
    // and hits, including reads with Ns, and empty and short reads.
    Rng rng(13);
    const std::string ref = randomDna(rng, 5000);
    const FmIndex fm = FmIndex::build(ref);
    std::vector<std::vector<u8>> reads;
    for (int i = 0; i < 200; ++i) {
        const u64 len = 30 + rng.below(121);
        std::string s = ref.substr(rng.below(ref.size() - len), len);
        for (u64 e = rng.below(4); e > 0; --e) {
            s[rng.below(s.size())] = "ACGTN"[rng.below(5)];
        }
        if (rng.chance(0.5)) s = reverseComplement(s);
        reads.push_back(encodeDna(s));
    }
    reads.push_back({});
    reads.push_back(encodeDna("NNNNNN"));
    reads.push_back(encodeDna("AC"));

    using Found = std::vector<std::tuple<u64, u64, u64, i32, i32, u64,
                                         bool>>;
    auto search = [&] {
        Found found;
        for (const auto& read : reads) {
            NullProbe probe;
            std::vector<Smem> mems;
            fm.smems(std::span<const u8>(read), 19, mems, probe);
            for (const Smem& m : mems) {
                for (const auto& hit : fm.locate(m, 4)) {
                    found.emplace_back(m.k, m.l, m.s, m.begin, m.end,
                                       hit.pos, hit.reverse);
                }
            }
        }
        return found;
    };
    Found scalar;
    {
        LevelGuard guard;
        simd::setSimdLevel(simd::SimdLevel::kScalar);
        scalar = search();
    }
    ASSERT_GT(scalar.size(), reads.size());
    EXPECT_EQ(search(), scalar)
        << "level " << simd::simdLevelName(simd::activeSimdLevel());
}

} // namespace
} // namespace gb
