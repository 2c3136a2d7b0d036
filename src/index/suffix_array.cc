#include "index/suffix_array.h"

#include <algorithm>
#include <bit>
#include <string_view>

namespace gb {

namespace {

constexpr u32 kEmpty = 0xffffffffu;

/** Suffix types at one bit per symbol: a set bit is S-type. */
class SuffixTypes
{
  public:
    template <typename T>
    SuffixTypes(const T* s, u32 n) : bits_((u64{n} + 63) / 64, 0)
    {
        // Right to left, a word at a time; s[n-1] is the sentinel,
        // S-type by convention.
        u64 is_s = 1;
        u64 word = is_s << ((n - 1) & 63);
        for (u32 i = n - 1; i-- > 0;) {
            if ((i & 63) == 63) {
                bits_[(i >> 6) + 1] = word;
                word = 0;
            }
            is_s = static_cast<u64>(s[i] < s[i + 1]) |
                   (static_cast<u64>(s[i] == s[i + 1]) & is_s);
            word |= is_s << (i & 63);
        }
        bits_[0] = word;
    }

    bool
    isS(u32 i) const
    {
        return (bits_[i >> 6] >> (i & 63)) & 1;
    }

    /** Leftmost S-type position: S-type with an L-type left neighbour. */
    bool
    isLms(u32 i) const
    {
        return i > 0 && isS(i) && !isS(i - 1);
    }

    /** Call fn(pos) for every LMS position, in text order. */
    template <typename Fn>
    void
    forEachLms(Fn&& fn) const
    {
        u64 carry = ~u64{0}; // position 0 is never LMS
        for (size_t w = 0; w < bits_.size(); ++w) {
            u64 lms = bits_[w] & ~((bits_[w] << 1) | (carry >> 63));
            carry = bits_[w];
            while (lms != 0) {
                fn(static_cast<u32>(w * 64 + std::countr_zero(lms)));
                lms &= lms - 1;
            }
        }
    }

  private:
    std::vector<u64> bits_;
};

/**
 * Bucket bounds of s[0, n) over alphabet [0, k) into bucket[0, k): the
 * first row of each symbol's bucket, or one past its last row. Counting
 * again for every pass costs one read of the text and keeps the bucket
 * memory of a level at k words.
 */
template <typename T>
void
bucketBounds(const T* s, u32 n, u32 k, u32* bucket, bool ends)
{
    std::fill(bucket, bucket + k, 0);
    for (u32 i = 0; i < n; ++i) ++bucket[s[i]];
    u32 sum = 0;
    for (u32 c = 0; c < k; ++c) {
        sum += bucket[c];
        bucket[c] = ends ? sum : sum - bucket[c];
    }
}

/**
 * Induced sort: L-type suffixes left to right from the bucket heads,
 * then S-type suffixes right to left from the bucket tails.
 */
template <typename T>
void
induce(const T* s, u32* sa, u32 n, u32 k, const SuffixTypes& types,
       u32* bucket)
{
    // p = sa[i] - 1 is a real position below n - 1 unless sa[i] is 0
    // or kEmpty, which both wrap to p >= n - 1.
    bucketBounds(s, n, k, bucket, false);
    for (u32 i = 0; i < n; ++i) {
        const u32 p = sa[i] - 1;
        if (p < n - 1 && !types.isS(p)) sa[bucket[s[p]]++] = p;
    }
    bucketBounds(s, n, k, bucket, true);
    for (u32 i = n; i-- > 0;) {
        const u32 p = sa[i] - 1;
        if (p < n - 1 && types.isS(p)) sa[--bucket[s[p]]] = p;
    }
}

/**
 * Linear-space SA-IS (Nong, Zhang and Chan, 2009) of s[0, n) over
 * alphabet [0, k), written to sa[0, n). s[n-1] must be the unique
 * smallest symbol. Besides sa, a level keeps one type bit per symbol
 * and k words of buckets, and frees the buckets before it recurses:
 * the reduced text lives in sa's tail and the recursion sorts it in
 * sa's head.
 */
template <typename T>
void
sais(const T* s, u32* sa, u32 n, u32 k)
{
    if (n == 1) {
        sa[0] = 0;
        return;
    }
    const SuffixTypes types(s, n);
    std::vector<u32> bucket(k);

    // Stage 1: LMS positions at their bucket tails, induced into
    // LMS-substring order.
    std::fill(sa, sa + n, kEmpty);
    bucketBounds(s, n, k, bucket.data(), true);
    types.forEachLms([&](u32 pos) { sa[--bucket[s[pos]]] = pos; });
    induce(s, sa, n, k, types, bucket.data());

    // Sorted LMS substrings to sa[0, m). LMS positions are >= 2 apart,
    // so m <= n/2 and each one owns the slot sa[m + pos/2], below n.
    u32 m = 0;
    for (u32 i = 0; i < n; ++i) {
        const u32 pos = sa[i];
        sa[m] = pos;
        m += types.isLms(pos);
    }
    // Name them in sorted order. An LMS substring runs to the next LMS
    // position inclusive; two with equal length and symbols also have
    // equal types (types follow from the symbols right to left, and
    // both end S-type), so length + symbols decide equality.
    std::fill(sa + m, sa + n, kEmpty);
    u32 prev_lms = n - 1; // the last LMS position; here "none yet"
    types.forEachLms([&](u32 pos) {
        if (prev_lms != n - 1) sa[m + prev_lms / 2] = pos - prev_lms + 1;
        prev_lms = pos;
    });
    sa[m + (n - 1) / 2] = 1; // the sentinel's own substring
    u32 names = 0;
    u32 prev_pos = 0;
    u32 prev_len = 0;
    for (u32 r = 0; r < m; ++r) {
        const u32 pos = sa[r];
        const u32 len = sa[m + pos / 2];
        if (len != prev_len ||
            !std::equal(s + pos, s + pos + len, s + prev_pos)) {
            ++names;
        }
        sa[m + pos / 2] = names - 1;
        prev_pos = pos;
        prev_len = len;
    }

    // Reduced text (names in text order) to sa[n-m, n); its last name
    // is the sentinel's 0, so the recursion's contract holds.
    u32* reduced = sa + n - m;
    for (u32 i = n, out = n; i-- > m;) {
        // Slots in [i, out) are already read, so the store is harmless
        // when sa[i] is empty and out does not move.
        const u32 name = sa[i];
        sa[out - 1] = name;
        out -= name != kEmpty;
    }
    if (names < m) {
        bucket = {};
        sais<u32>(reduced, sa, m, names);
        bucket.resize(k);
    } else {
        for (u32 r = 0; r < m; ++r) sa[reduced[r]] = r;
    }

    // Stage 2: map reduced ranks back to LMS positions, place them at
    // their bucket tails in sorted order and induce the full SA. Row
    // r's tail slot is >= r, so the placement never clobbers an
    // unplaced rank.
    u32 out = n - m;
    types.forEachLms([&](u32 pos) { sa[out++] = pos; });
    for (u32 r = 0; r < m; ++r) sa[r] = reduced[sa[r]];
    std::fill(sa + m, sa + n, kEmpty);
    bucketBounds(s, n, k, bucket.data(), true);
    for (u32 r = m; r-- > 0;) {
        const u32 pos = sa[r];
        sa[r] = kEmpty;
        sa[--bucket[s[pos]]] = pos;
    }
    induce(s, sa, n, k, types, bucket.data());
}

} // namespace

std::vector<u32>
buildSuffixArray(const std::vector<u8>& text)
{
    requireInput(!text.empty(), "suffix array: empty text");
    requireInput(text.size() < kEmpty,
                 "suffix array: text must be shorter than 2^32 - 1");
    requireInput(text.back() == 0,
                 "suffix array: text must end with sentinel 0");
    u8 max_symbol = 0;
    for (size_t i = 0; i + 1 < text.size(); ++i) {
        requireInput(text[i] != 0, "suffix array: interior sentinel");
        max_symbol = std::max(max_symbol, text[i]);
    }
    std::vector<u32> sa(text.size());
    sais<u8>(text.data(), sa.data(), static_cast<u32>(text.size()),
             u32{max_symbol} + 1);
    return sa;
}

std::vector<u32>
buildSuffixArrayNaive(const std::vector<u8>& text)
{
    std::vector<u32> sa(text.size());
    for (u32 i = 0; i < sa.size(); ++i) sa[i] = i;
    const std::string_view sv(reinterpret_cast<const char*>(text.data()),
                              text.size());
    std::sort(sa.begin(), sa.end(), [&](u32 a, u32 b) {
        return sv.substr(a) < sv.substr(b);
    });
    return sa;
}

std::vector<u8>
bwtFromSuffixArray(const std::vector<u8>& text,
                   const std::vector<u32>& sa)
{
    std::vector<u8> bwt(text.size());
    for (size_t i = 0; i < sa.size(); ++i) {
        bwt[i] = sa[i] == 0 ? text.back() : text[sa[i] - 1];
    }
    return bwt;
}

} // namespace gb
