#include "index/fm_index.h"

#include <algorithm>
#include <utility>

#include "io/dna.h"
#include "index/suffix_array.h"

namespace gb {

FmIndex
FmIndex::build(std::string_view reference, u32 block_len)
{
    requireInput(!reference.empty(), "FM-index: empty reference");
    requireInput(block_len >= 8 && block_len <= 4096,
                 "FM-index: block_len must be in [8, 4096]");

    FmIndex fm;
    fm.ref_len_ = reference.size();
    fm.n_ = 2 * fm.ref_len_ + 2;
    fm.block_len_ = block_len;

    // Text layout: ref(codes+2) '#'(1) revcomp(codes+2) '$'(0).
    std::vector<u8> text(fm.n_);
    for (u64 i = 0; i < fm.ref_len_; ++i) {
        const u8 code = baseCode(reference[i]);
        requireInput(code < kNumBases,
                     "FM-index: reference must be ACGT only");
        text[i] = code + 2;
        // Reverse complement occupies [ref_len_+1, 2*ref_len_]; the
        // complement of base i lands at mirrored position 2L - i.
        text[fm.n_ - 2 - i] = static_cast<u8>((3 - code) + 2);
    }
    text[fm.ref_len_] = kSeparator;
    text[fm.n_ - 1] = kSentinel;

    std::vector<u32> sa = buildSuffixArray(text);
    fm.bwt_own_ = bwtFromSuffixArray(text, sa);
    text = {};

    // Cumulative counts.
    std::array<u64, kAlphabet> totals{};
    for (u8 s : fm.bwt_own_) ++totals[s];
    fm.c_[0] = 0;
    for (u32 c = 0; c < kAlphabet; ++c) {
        fm.c_[c + 1] = fm.c_[c] + totals[c];
    }

    // Checkpoint counts every block_len symbols + the raw BWT, padded
    // with sentinels to whole blocks.
    const u64 num_blocks = ceilDiv<u64>(fm.n_, block_len) + 1;
    fm.counts_own_.assign(num_blocks * kAlphabet, 0);
    fm.bwt_own_.resize(num_blocks * block_len, kSentinel);
    std::array<u32, kAlphabet> running{};
    for (u64 b = 0; b < num_blocks; ++b) {
        for (u32 c = 0; c < kAlphabet; ++c) {
            fm.counts_own_[b * kAlphabet + c] = running[c];
        }
        for (u32 j = 0; j < block_len; ++j) {
            const u64 pos = b * block_len + j;
            if (pos < fm.n_) ++running[fm.bwt_own_[pos]];
        }
    }

    // Position-sampled SA, in the SA's own storage: pos_of_row_[row]
    // = SA[row] when sampled.
    for (u32& pos : sa) {
        if (pos % kSaSampleRate != 0) pos = kUnsampled;
    }
    fm.sa_own_ = std::move(sa);
    fm.counts_ = fm.counts_own_;
    fm.bwt_ = fm.bwt_own_;
    fm.sa_samples_ = fm.sa_own_;
    return fm;
}

void
FmIndex::checkParts(u64 ref_len, u64 n, u32 block_len,
                    const std::array<u64, kAlphabet + 1>& c,
                    std::span<const u32> counts, std::span<const u8> bwt,
                    u64 sa_size)
{
    requireInput(n == 2 * ref_len + 2 && block_len >= 8 &&
                     block_len <= 4096,
                 "FM-index: inconsistent header");
    const u64 num_blocks = ceilDiv<u64>(n, block_len) + 1;
    requireInput(counts.size() == num_blocks * kAlphabet &&
                     bwt.size() == num_blocks * block_len &&
                     sa_size == n,
                 "FM-index: inconsistent payload");
    // baseInterval() and the extension steps index by c[], so c must
    // be a cumulative count over exactly the n BWT symbols.
    requireInput(c[0] == 0 && std::is_sorted(c.begin(), c.end()) &&
                     c[kAlphabet] == n,
                 "FM-index: inconsistent cumulative counts");
    // occ() adds a partial-block scan to a checkpoint and the result
    // indexes c[]-based intervals, so every checkpoint must be the
    // prefix count at its block start: 0 at the first block, each
    // symbol's total at the block past the end ...
    const u64 last = (num_blocks - 1) * kAlphabet;
    for (u32 sym = 0; sym < kAlphabet; ++sym) {
        requireInput(counts[sym] == 0 &&
                         counts[last + sym] == c[sym + 1] - c[sym],
                     "FM-index: inconsistent occ checkpoints");
    }
    // ... and, in one O(n) pass, each block's symbols add up to the
    // step to the next checkpoint. The scan indexes a kAlphabet-entry
    // counter by BWT byte, so every byte in [0, n) must be a symbol.
    for (u64 b = 0; b + 1 < num_blocks; ++b) {
        std::array<u32, kAlphabet> in_block{};
        const u64 end = std::min<u64>((b + 1) * block_len, n);
        for (u64 pos = b * block_len; pos < end; ++pos) {
            const u8 sym = bwt[pos];
            if (sym >= kAlphabet) {
                throw InputError("FM-index: inconsistent BWT");
            }
            ++in_block[sym];
        }
        bool steps = true;
        for (u32 sym = 0; sym < kAlphabet; ++sym) {
            steps &= counts[(b + 1) * kAlphabet + sym] -
                         counts[b * kAlphabet + sym] ==
                     in_block[sym];
        }
        requireInput(steps, "FM-index: inconsistent BWT");
    }
}

FmIndex
FmIndex::fromViews(u64 ref_len, u32 block_len,
                   const std::array<u64, kAlphabet + 1>& c,
                   std::span<const u32> counts, std::span<const u8> bwt,
                   std::span<const u32> sa_samples,
                   std::shared_ptr<const void> backing)
{
    checkParts(ref_len, 2 * ref_len + 2, block_len, c, counts, bwt,
               sa_samples.size());
    FmIndex fm;
    fm.ref_len_ = ref_len;
    fm.n_ = 2 * ref_len + 2;
    fm.block_len_ = block_len;
    fm.c_ = c;
    fm.counts_ = counts;
    fm.bwt_ = bwt;
    fm.sa_samples_ = sa_samples;
    fm.backing_ = std::move(backing);
    return fm;
}

BiInterval
FmIndex::baseInterval(u8 base) const
{
    BiInterval ik;
    ik.k = c_[base + 2];
    ik.s = c_[base + 3] - c_[base + 2];
    ik.l = c_[(3 - base) + 2];
    return ik;
}

u64
FmIndex::occOne(u8 symbol, u64 i) const
{
    const u64 block_idx = i / block_len_;
    u64 count = counts_[block_idx * kAlphabet + symbol];
    const u64 base = block_idx * block_len_;
    for (u64 pos = base; pos < i; ++pos) {
        if (bwt_[pos] == symbol) ++count;
    }
    return count;
}

u64
FmIndex::count(std::string_view pattern) const
{
    requireInput(!pattern.empty(), "FM-index count: empty pattern");
    std::vector<u8> codes = encodeDna(pattern);
    for (u8 c : codes) {
        if (c >= kNumBases) return 0;
    }
    NullProbe probe;
    std::array<BiInterval, 4> ok;
    BiInterval ik = baseInterval(codes.back());
    for (i64 i = static_cast<i64>(codes.size()) - 2; i >= 0 && ik.s;
         --i) {
        extendBackward(ik, ok, probe);
        ik = ok[codes[i]];
    }
    return ik.s;
}

namespace {

/** Recursive bounded-mismatch backward search. */
template <typename ExtendFn>
void
inexactRec(const ExtendFn& extend, std::span<const u8> pattern,
           i64 i, u32 budget, const BiInterval& ik,
           std::vector<BiInterval>& out)
{
    if (i < 0) {
        out.push_back(ik);
        return;
    }
    std::array<BiInterval, 4> ok;
    extend(ik, ok);
    for (u8 c = 0; c < 4; ++c) {
        if (ok[c].s == 0) continue;
        const bool match = c == pattern[static_cast<size_t>(i)];
        if (!match && budget == 0) continue;
        inexactRec(extend, pattern, i - 1, budget - (match ? 0 : 1),
                   ok[c], out);
    }
}

} // namespace

std::vector<BiInterval>
FmIndex::searchInexact(std::span<const u8> pattern,
                       u32 max_mismatches) const
{
    requireInput(!pattern.empty(), "FM-index inexact: empty pattern");
    for (u8 c : pattern) {
        requireInput(c < kNumBases,
                     "FM-index inexact: pattern must be ACGT codes");
    }
    std::vector<BiInterval> out;
    NullProbe probe;
    auto extend = [&](const BiInterval& ik,
                      std::array<BiInterval, 4>& ok) {
        extendBackward(ik, ok, probe);
    };

    // Seed with the last character (exact or mismatched).
    const i64 last = static_cast<i64>(pattern.size()) - 1;
    for (u8 c = 0; c < 4; ++c) {
        const bool match = c == pattern[static_cast<size_t>(last)];
        if (!match && max_mismatches == 0) continue;
        BiInterval ik = baseInterval(c);
        ik.begin = 0;
        ik.end = static_cast<i32>(pattern.size());
        if (ik.s == 0) continue;
        inexactRec(extend, pattern, last - 1,
                   max_mismatches - (match ? 0 : 1), ik, out);
    }
    return out;
}

u64
FmIndex::countInexact(std::string_view pattern, u32 max_mismatches) const
{
    const std::vector<u8> codes = encodeDna(pattern);
    for (u8 c : codes) {
        if (c >= kNumBases) return 0;
    }
    u64 total = 0;
    for (const auto& interval :
         searchInexact(std::span<const u8>(codes), max_mismatches)) {
        total += interval.s;
    }
    return total;
}

std::vector<FmIndex::Hit>
FmIndex::locate(const BiInterval& interval, u64 max_hits) const
{
    std::vector<Hit> hits;
    const u64 limit =
        max_hits ? std::min<u64>(max_hits, interval.s) : interval.s;
    const u64 match_len = static_cast<u64>(
        std::max<i32>(interval.length(), 1));

    for (u64 j = interval.k; j < interval.k + limit; ++j) {
        u64 row = j;
        u64 steps = 0;
        while (sa_samples_[row] == kUnsampled) {
            // LF-mapping step.
            const u8 sym = bwt_[row];
            row = c_[sym] + occOne(sym, row);
            ++steps;
        }
        const u64 pos_in_text = sa_samples_[row] + steps;
        Hit hit;
        if (pos_in_text < ref_len_) {
            hit.pos = pos_in_text;
            hit.reverse = false;
        } else {
            // Position inside the reverse-complement half.
            const u64 offset = pos_in_text - (ref_len_ + 1);
            hit.pos = ref_len_ - offset - match_len;
            hit.reverse = true;
        }
        hits.push_back(hit);
    }
    std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
        return a.pos < b.pos || (a.pos == b.pos && a.reverse < b.reverse);
    });
    return hits;
}

} // namespace gb
