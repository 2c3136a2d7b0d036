#include "index/fm_index.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "io/dna.h"
#include "index/suffix_array.h"
#include "simd/simd.h"

namespace gb {

namespace {

/** block_len values with whole plane triples: 64·m, up to 4096. */
bool
validBlockLen(u32 block_len)
{
    return block_len % FmIndex::kLineSymbols == 0 && block_len >= 64 &&
           block_len <= 4096;
}

/** Live-position mask of the 64 symbols from `pos` in a BWT of n. */
u64
liveMask(u64 pos, u64 n)
{
    if (pos >= n) return 0;
    return n - pos >= 64 ? ~u64{0} : (u64{1} << (n - pos)) - 1;
}

/** Add each symbol's count among one plane triple's live positions. */
void
addTriple(const u64* planes, u64 live,
          std::array<u64, FmIndex::kAlphabet>& counts)
{
    for (u32 c = 0; c < FmIndex::kAlphabet; ++c) {
        counts[c] += static_cast<u64>(
            std::popcount(FmIndex::symbolBits(planes, c) & live));
    }
}

/**
 * Bit k of each of 8 bytes, gathered into bits 0..7: the multiply
 * moves byte j's bit to bit 56 + j and no two partial products
 * overlap, so nothing carries.
 */
u64
gatherBit(u64 bytes, u32 k)
{
    return (((bytes >> k) & 0x0101010101010101ull) *
            0x0102040810204080ull) >> 56;
}

} // namespace

FmIndex
FmIndex::build(std::string_view reference, u32 block_len)
{
    requireInput(!reference.empty(), "FM-index: empty reference");
    requireInput(validBlockLen(block_len),
                 "FM-index: block_len must be a multiple of 64 in "
                 "[64, 4096]");

    FmIndex fm;
    fm.ref_len_ = reference.size();
    fm.n_ = 2 * fm.ref_len_ + 2;
    fm.block_len_ = block_len;
    fm.block_words_ = blockWords(block_len);

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

    // One pass over the blocks: each block's checkpoints (the running
    // counts) and sample count, then its planes, from 8 BWT symbols
    // (text[SA[i] - 1]) gathered per word, and its marks. Positions
    // past n read as code 0 and are never marked, so their bits stay
    // clear; the live mask keeps them out of the counts. The sampled
    // rows' SA values are copied out in row order as they are marked.
    const u32 triples = block_len / kLineSymbols;
    const u64 num_blocks = fm.n_ / block_len + 1;
    const u64 words = num_blocks * fm.block_words_;
    fm.occ_own_.reset(static_cast<u64*>(
        ::operator new[](words * sizeof(u64), std::align_val_t{64})));
    std::fill_n(fm.occ_own_.get(), words, u64{0});
    fm.sa_own_.reserve((fm.n_ + kSaSampleRate - 1) / kSaSampleRate);
    std::array<u64, kAlphabet> running{};
    for (u64 b = 0; b < num_blocks; ++b) {
        u64* line = &fm.occ_own_[b * fm.block_words_];
        for (u32 c = 0; c < kAlphabet; c += 2) {
            line[c / 2] = running[c] | running[c + 1] << 32;
        }
        line[sampleCountWord(triples)] = fm.sa_own_.size();
        for (u32 t = 0; t < triples; ++t) {
            const u64 pos = b * block_len + t * kLineSymbols;
            u64* planes = line + 3 + 3 * t;
            for (u32 j = 0; j < kLineSymbols; j += 8) {
                u64 bytes = 0;
                for (u64 k = 0, i = pos + j; k < 8 && i < fm.n_;
                     ++k, ++i) {
                    const u64 sym =
                        sa[i] == 0 ? text.back() : text[sa[i] - 1];
                    bytes |= sym << (8 * k);
                }
                for (u32 k = 0; k < 3; ++k) {
                    planes[k] |= gatherBit(bytes, k) << j;
                }
            }
            u64 marks = 0;
            for (u64 j = 0, i = pos; j < kLineSymbols && i < fm.n_;
                 ++j, ++i) {
                if (sa[i] % kSaSampleRate == 0) {
                    marks |= u64{1} << j;
                    fm.sa_own_.push_back(sa[i]);
                }
            }
            line[3 + 3 * triples + t] = marks;
            addTriple(planes, liveMask(pos, fm.n_), running);
        }
    }
    text = {};
    sa = {};
    fm.c_[0] = 0;
    for (u32 c = 0; c < kAlphabet; ++c) {
        fm.c_[c + 1] = fm.c_[c] + running[c];
    }
    fm.occ_ = std::span<const u64>(fm.occ_own_.get(), words);
    fm.sa_samples_ = fm.sa_own_;
    return fm;
}

void
FmIndex::checkParts(u64 ref_len, u64 n, u32 block_len,
                    const std::array<u64, kAlphabet + 1>& c,
                    std::span<const u64> occ,
                    std::span<const u32> sa_samples)
{
    requireInput(n == 2 * ref_len + 2 && validBlockLen(block_len),
                 "FM-index: inconsistent header");
    const u32 words = blockWords(block_len);
    const u32 triples = block_len / kLineSymbols;
    const u64 num_blocks = n / block_len + 1;
    requireInput(occ.size() == num_blocks * words &&
                     sa_samples.size() ==
                         (n + kSaSampleRate - 1) / kSaSampleRate,
                 "FM-index: inconsistent payload");
    // baseInterval() and the extension steps index by c[], so c must
    // be a cumulative count over exactly the n BWT symbols.
    requireInput(c[0] == 0 && std::is_sorted(c.begin(), c.end()) &&
                     c[kAlphabet] == n,
                 "FM-index: inconsistent cumulative counts");
    // occ() adds popcounts to a checkpoint and the result indexes
    // c[]-based intervals, so each checkpoint must be the prefix count
    // at its block start, and every position a symbol. locate() reads
    // sample number (line count + marks below the row), so each count
    // must be the marks before its line.
    std::array<u64, kAlphabet> running{};
    u64 samples = 0;
    for (u64 b = 0; b < num_blocks; ++b) {
        const u64* line = &occ[b * words];
        bool ok = line[sampleCountWord(triples)] == samples;
        for (u32 sym = 0; sym < kAlphabet; ++sym) {
            ok &= checkpoint(line, sym) == running[sym];
        }
        for (u32 t = 0; t < triples; ++t) {
            const u64* p = line + 3 + 3 * t;
            const u64 marks = line[3 + 3 * triples + t];
            const u64 live = liveMask(b * block_len + t * kLineSymbols, n);
            const u64 used = p[0] | p[1] | p[2] | marks;
            ok &= ((p[1] & p[2]) | (used & ~live)) == 0;
            addTriple(p, live, running);
            samples += static_cast<u64>(std::popcount(marks));
        }
        for (u32 w = sampleCountWord(triples) + 1; w < words; ++w) {
            ok &= line[w] == 0;
        }
        requireInput(ok, "FM-index: inconsistent occ lines");
    }
    for (u32 sym = 0; sym < kAlphabet; ++sym) {
        requireInput(running[sym] == c[sym + 1] - c[sym],
                     "FM-index: occ lines disagree with cumulative counts");
    }
    requireInput(samples == sa_samples.size(),
                 "FM-index: sample marks disagree with the SA samples");
    // locate() adds its LF steps to a sample, so each must be a text
    // position the sampling rate keeps.
    bool ok = true;
    for (const u32 pos : sa_samples) {
        ok &= pos < n && pos % kSaSampleRate == 0;
    }
    requireInput(ok, "FM-index: SA sample off the sampled positions");
}

FmIndex
FmIndex::fromViews(u64 ref_len, u32 block_len,
                   const std::array<u64, kAlphabet + 1>& c,
                   std::span<const u64> occ,
                   std::span<const u32> sa_samples,
                   std::shared_ptr<const void> backing)
{
    checkParts(ref_len, 2 * ref_len + 2, block_len, c, occ, sa_samples);
    FmIndex fm;
    fm.ref_len_ = ref_len;
    fm.n_ = 2 * ref_len + 2;
    fm.block_len_ = block_len;
    fm.block_words_ = blockWords(block_len);
    fm.c_ = c;
    fm.occ_ = occ;
    fm.sa_samples_ = sa_samples;
    fm.backing_ = std::move(backing);
    return fm;
}

void
FmIndex::smems(std::span<const u8> query, i32 min_len,
               std::vector<Smem>& out, NullProbe& probe) const
{
#if GB_FMI_POPCNT
    if (simd::activeSimdLevel() != simd::SimdLevel::kScalar) {
        smemsPopcnt(query, min_len, out);
        return;
    }
#endif
    smems<NullProbe>(query, min_len, out, probe);
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
    const u64 block = blockIndex(i);
    const u64* line = &occ_[block * block_words_];
    const u32 rem = static_cast<u32>(i - block * block_len_);
    const u32 last = rem / kLineSymbols;
    u64 count = checkpoint(line, symbol);
    for (u32 t = 0; t <= last; ++t) {
        const u64 live =
            t < last ? ~u64{0} : (u64{1} << (rem % kLineSymbols)) - 1;
        count += static_cast<u64>(
            std::popcount(symbolBits(line + 3 + 3 * t, symbol) & live));
    }
    return count;
}

u64
FmIndex::sampleNumber(u64 row) const
{
    const u64 block = blockIndex(row);
    const u64* line = &occ_[block * block_words_];
    const u32 rem = static_cast<u32>(row - block * block_len_);
    const u32 triples = block_len_ / kLineSymbols;
    const u32 last = rem / kLineSymbols;
    const u64* marks = line + 3 + 3 * triples;
    const u32 bit = rem % kLineSymbols;
    if (((marks[last] >> bit) & 1) == 0) return kNotSampled;
    u64 number = line[sampleCountWord(triples)];
    for (u32 t = 0; t < last; ++t) {
        number += static_cast<u64>(std::popcount(marks[t]));
    }
    return number + static_cast<u64>(std::popcount(
                        marks[last] & ((u64{1} << bit) - 1)));
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
        u64 sample;
        while ((sample = sampleNumber(row)) == kNotSampled) {
            // LF-mapping step: BWT[row] and its rank, from row's line.
            const u8 sym = symbolAt(row);
            row = c_[sym] + occOne(sym, row);
            ++steps;
        }
        const u64 pos_in_text = sa_samples_[sample] + steps;
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
