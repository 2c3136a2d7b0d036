/**
 * @file
 * Tests for suffix-array construction and the FMD-index / SMEM search,
 * including property tests against brute-force oracles.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "index/fm_index.h"
#include "index/suffix_array.h"
#include "io/dna.h"
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
    const auto sa = buildSuffixArray(t, 27);
    const std::vector<u32> expected{6, 5, 3, 1, 0, 4, 2};
    EXPECT_EQ(sa, expected);
}

TEST(SuffixArray, SingleChar)
{
    const auto t = textOf("a");
    const auto sa = buildSuffixArray(t, 27);
    const std::vector<u32> expected{1, 0};
    EXPECT_EQ(sa, expected);
}

TEST(SuffixArray, RejectsMissingSentinel)
{
    std::vector<u8> t{1, 2, 3};
    EXPECT_THROW(buildSuffixArray(t, 4), InputError);
}

TEST(SuffixArray, RejectsInteriorSentinel)
{
    std::vector<u8> t{1, 0, 2, 0};
    EXPECT_THROW(buildSuffixArray(t, 4), InputError);
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
    const auto fast = buildSuffixArray(t, alphabet + 2);
    const auto naive = buildSuffixArrayNaive(t);
    EXPECT_EQ(fast, naive) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuffixArrayRandom,
                         ::testing::Range(1, 25));

TEST(SuffixArray, RepetitiveText)
{
    // Highly repetitive input stresses the SA-IS recursion.
    std::string s;
    for (int i = 0; i < 50; ++i) s += "abcab";
    const auto t = textOf(s);
    EXPECT_EQ(buildSuffixArray(t, 27), buildSuffixArrayNaive(t));
}

TEST(Bwt, InvertibleViaLf)
{
    // Reconstruct the text from its BWT using LF mapping.
    const auto t = textOf("mississippi");
    const auto sa = buildSuffixArray(t, 27);
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
    auto sameTraffic = [](const CountingProbe& a, const CountingProbe& b) {
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
            CountingProbe full;
            fm.extendBackward(ik, all, full);
            CountingProbe one;
            const BiInterval got = fm.extendBackwardOneFused(ik, c, one);
            EXPECT_TRUE(same(got, all[c])) << "backward c=" << int(c);
            EXPECT_TRUE(sameTraffic(one, full))
                << "backward c=" << int(c);

            CountingProbe full_fwd;
            fm.extendForward(ik, all, full_fwd);
            CountingProbe one_fwd;
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
    fm.smemsAt(std::span<const u8>(codes), x, 1, mems, probe);

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

/** Brute-force both-strand count within `z` substitutions. */
u64
bruteCountInexact(const std::string& ref, const std::string& pattern,
                  u32 z)
{
    auto hamWithin = [&](const std::string& text, size_t pos) {
        u32 mismatches = 0;
        for (size_t i = 0; i < pattern.size(); ++i) {
            mismatches += text[pos + i] != pattern[i];
            if (mismatches > z) return false;
        }
        return true;
    };
    u64 n = 0;
    const std::string rc = reverseComplement(ref);
    for (const std::string* text : {&ref, &rc}) {
        if (text->size() < pattern.size()) continue;
        for (size_t pos = 0; pos + pattern.size() <= text->size();
             ++pos) {
            n += hamWithin(*text, pos);
        }
    }
    return n;
}

class FmInexactRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(FmInexactRandom, MatchesBruteForce)
{
    Rng rng(5000 + GetParam());
    const std::string ref = randomDna(rng, 150 + rng.below(200));
    FmIndex fm = FmIndex::build(ref);
    for (int trial = 0; trial < 10; ++trial) {
        const u64 plen = 4 + rng.below(8);
        std::string pattern;
        if (rng.chance(0.7) && ref.size() > plen) {
            pattern = ref.substr(rng.below(ref.size() - plen), plen);
        } else {
            pattern = randomDna(rng, plen);
        }
        const u32 z = static_cast<u32>(rng.below(3));
        EXPECT_EQ(fm.countInexact(pattern, z),
                  bruteCountInexact(ref, pattern, z))
            << "pattern " << pattern << " z=" << z;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmInexactRandom,
                         ::testing::Range(1, 11));

TEST(FmIndex, InexactZeroEqualsExact)
{
    Rng rng(66);
    const std::string ref = randomDna(rng, 400);
    FmIndex fm = FmIndex::build(ref);
    for (int trial = 0; trial < 20; ++trial) {
        const std::string pattern =
            ref.substr(rng.below(ref.size() - 10), 8);
        EXPECT_EQ(fm.countInexact(pattern, 0), fm.count(pattern));
    }
}

TEST(FmIndex, InexactIsMonotoneInBudget)
{
    Rng rng(67);
    const std::string ref = randomDna(rng, 500);
    FmIndex fm = FmIndex::build(ref);
    const std::string pattern = ref.substr(123, 10);
    u64 prev = 0;
    for (u32 z = 0; z <= 3; ++z) {
        const u64 n = fm.countInexact(pattern, z);
        EXPECT_GE(n, prev);
        prev = n;
    }
}

TEST(FmIndex, InexactFindsMutatedSite)
{
    Rng rng(68);
    const std::string ref = randomDna(rng, 2000);
    FmIndex fm = FmIndex::build(ref);
    std::string pattern = ref.substr(700, 20);
    pattern[10] = pattern[10] == 'A' ? 'C' : 'A';
    // A 20-mer with one mutation: absent exactly, present within 1.
    EXPECT_EQ(fm.count(pattern), 0u);
    EXPECT_GE(fm.countInexact(pattern, 1), 1u);
}

TEST(FmIndex, SaveLoadRoundTrip)
{
    Rng rng(70);
    const std::string ref = randomDna(rng, 700);
    const FmIndex original = FmIndex::build(ref, 128);

    std::stringstream buffer;
    original.save(buffer);
    const FmIndex loaded = FmIndex::load(buffer);

    EXPECT_EQ(loaded.referenceLength(), original.referenceLength());
    EXPECT_EQ(loaded.blockLen(), 128u);
    // Behavioural equality on queries.
    for (int trial = 0; trial < 20; ++trial) {
        const std::string pattern =
            ref.substr(rng.below(ref.size() - 12), 10);
        EXPECT_EQ(loaded.count(pattern), original.count(pattern));
    }
    const auto codes = encodeDna(ref.substr(50, 80));
    NullProbe probe;
    std::vector<Smem> a, b;
    original.smems(std::span<const u8>(codes), 19, a, probe);
    loaded.smems(std::span<const u8>(codes), 19, b, probe);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].k, b[i].k);
        EXPECT_EQ(a[i].s, b[i].s);
    }
}

TEST(FmIndex, LoadRejectsCorruptData)
{
    std::stringstream empty;
    EXPECT_THROW(FmIndex::load(empty), InputError);

    std::stringstream bad_magic;
    const u32 junk = 0xdeadbeef;
    bad_magic.write(reinterpret_cast<const char*>(&junk), 4);
    bad_magic.write(reinterpret_cast<const char*>(&junk), 4);
    EXPECT_THROW(FmIndex::load(bad_magic), InputError);

    // Truncated valid stream.
    Rng rng(71);
    const FmIndex fm = FmIndex::build(randomDna(rng, 100));
    std::stringstream full;
    fm.save(full);
    const std::string bytes = full.str();
    std::stringstream truncated(
        bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(FmIndex::load(truncated), InputError);
}

TEST(FmIndex, OccBlocksAreCompact)
{
    Rng rng(88);
    const std::string ref = randomDna(rng, 4096);
    FmIndex fm = FmIndex::build(ref);
    // 88 bytes per 64 symbols over 2n+2 symbols.
    EXPECT_LE(fm.occBytes(), (2 * 4096 + 2 + 128) / 64 * 88 + 88);
}

TEST(FmIndex, OccAllBlockAlignedChargesExactlyOneAccess)
{
    Rng rng(89);
    const std::string ref = randomDna(rng, 1000);
    const FmIndex fm = FmIndex::build(ref);
    const u32 block = fm.blockLen();

    // A block-aligned position resolves entirely from the checkpoint:
    // exactly one probe access (the counts), zero BWT bytes.
    CountingProbe aligned;
    fm.occAll(u64{2} * block, aligned);
    EXPECT_EQ(aligned.counts()[OpClass::kLoad], 1u);
    EXPECT_EQ(aligned.loadBytes(), FmIndex::kAlphabet * sizeof(u32));

    // An unaligned position adds one BWT access of `rem` bytes.
    CountingProbe unaligned;
    fm.occAll(u64{2} * block + 5, unaligned);
    EXPECT_EQ(unaligned.counts()[OpClass::kLoad], 2u);
    EXPECT_EQ(unaligned.loadBytes(),
              FmIndex::kAlphabet * sizeof(u32) + 5);

    // Both must agree with a plain byte count from block start.
    const auto at = fm.occAll(u64{2} * block + 5, unaligned);
    auto expect = fm.occAll(u64{2} * block, unaligned);
    for (u64 j = 2 * block; j < 2 * block + 5; ++j) {
        ++expect[fm.bwtData()[j]];
    }
    EXPECT_EQ(at, expect);
}

} // namespace
} // namespace gb
