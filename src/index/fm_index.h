/**
 * @file
 * FMD-index (bidirectional FM-index) and SMEM search — the fmi kernel.
 *
 * Faithful to the super-maximal exact match (SMEM) computation in
 * BWA-MEM/BWA-MEM2 (Li 2012, bwt_smem1): the index is built over the
 * reference concatenated with its reverse complement, bi-intervals
 * (k, l, s) track a pattern and its reverse complement simultaneously,
 * and SMEMs are found by forward extension followed by collective
 * backward extension.
 *
 * The occurrence table is one array of 64-byte occ lines, BWA-MEM2's
 * CP_OCC layout: each 64-symbol block holds its 6 u32 checkpoint
 * counts and 3 u64 bit planes (bit k of each symbol's code). So each
 * occ() lookup touches one cache line — the irregular large-working-set
 * access pattern the paper characterizes (two lookups per extension,
 * ">80 % of occ-table accesses open a new DRAM page") — and counts a
 * symbol with and/andnot under a live mask and one popcount.
 *
 * The suffix array is sampled by text position (every kSaSampleRate-th
 * position) and only the samples are kept, in row order. Words that
 * BWA-MEM2 leaves as padding hold a mark word per 64 rows (bit j set
 * where row j is sampled) and the count of samples before the block,
 * so locate() finds a row's sample number (count + popcount of the
 * marks below it) in the line its LF step reads anyway. At the default
 * 64-symbol blocks that is 1 byte per symbol of lines plus 1/8 byte of
 * samples, where the full SA took 4.
 *
 * Hot-path methods are templated on a Probe policy (see arch/probe.h).
 * smems(..., NullProbe&) is the production call: it dispatches each
 * read to a copy compiled with POPCNT (fm_index_popcnt.cc) unless
 * GB_SIMD_LEVEL=scalar.
 *
 * An index is built in memory by build() or mapped from disk by
 * fromViews(). It persists only as a gb::store container
 * (store/artifacts.h): addFmIndex() writes the flat arrays and
 * viewFmIndex() maps them back without copying.
 */
#ifndef GB_INDEX_FM_INDEX_H
#define GB_INDEX_FM_INDEX_H

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "arch/probe.h"
#include "util/common.h"

namespace gb {

/**
 * Bi-directional interval: suffix-array interval of a pattern P
 * (start `k`, size `s`) together with the interval start `l` of its
 * reverse complement. `begin`/`end` delimit the matched query span.
 */
struct BiInterval
{
    u64 k = 0;
    u64 l = 0;
    u64 s = 0;
    i32 begin = 0; ///< query start of the match (inclusive)
    i32 end = 0;   ///< query end of the match (exclusive)

    bool valid() const { return s > 0; }
    i32 length() const { return end - begin; }
};

/** A super-maximal exact match reported by smemsAt(). */
using Smem = BiInterval;

/**
 * Candidate-interval buffers of smemsAt(), owned by its caller so one
 * read's pivots reuse the same allocations.
 */
struct SmemScratch
{
    std::vector<BiInterval> prev;
    std::vector<BiInterval> curr;
};

/**
 * FM-index over reference + reverse complement with a position-sampled
 * SA whose samples are marked and counted in the occ lines.
 */
class FmIndex
{
  public:
    /** Symbol codes inside the index. */
    static constexpr u8 kSentinel = 0; ///< terminator (once, at end)
    static constexpr u8 kSeparator = 1; ///< between the two strands
    static constexpr u32 kAlphabet = 6; ///< $, #, A, C, G, T
    static constexpr u32 kSaSampleRate = 32;
    /** Symbols per plane triple (one u64 word per plane). */
    static constexpr u32 kLineSymbols = 64;

    /**
     * Build the index for an ACGT reference (case-insensitive;
     * throws InputError on N or other characters).
     *
     * @param block_len BWT symbols per occ checkpoint: 64·m, stored
     *        as the counts, m plane triples, m mark words and a sample
     *        count, padded to whole 64-byte lines (default 64,
     *        BWA-MEM2-like; larger blocks shrink the index but popcount
     *        more planes per lookup — see the occ-spacing ablation
     *        bench). Any other value is an InputError.
     */
    static FmIndex build(std::string_view reference,
                         u32 block_len = 64);

    FmIndex() = default;
    // Move-only: the occ/SA spans point into the owned buffers or into
    // an mmap backing, and a move keeps both valid (moves keep heap
    // buffers alive).
    FmIndex(const FmIndex&) = delete;
    FmIndex& operator=(const FmIndex&) = delete;
    FmIndex(FmIndex&&) noexcept = default;
    FmIndex& operator=(FmIndex&&) noexcept = default;

    /**
     * Assemble an index over externally-owned flat arrays without
     * copying them (the gb::store mmap load path). `backing` is held
     * for the index's lifetime and must keep the spans valid — e.g.
     * the store::StoreReader whose mapping they point into. Throws
     * InputError unless the header fields, the array sizes, the
     * cumulative counts and the occ lines are consistent with each
     * other (see checkParts()).
     */
    static FmIndex fromViews(u64 ref_len, u32 block_len,
                             const std::array<u64, kAlphabet + 1>& c,
                             std::span<const u64> occ,
                             std::span<const u32> sa_samples,
                             std::shared_ptr<const void> backing);

    /** Constituent-array accessors (for gb::store). saSamples() holds
     *  SA[row] of the marked rows only, in row order. */
    std::span<const u64> occLines() const { return occ_; }
    std::span<const u32> saSamples() const { return sa_samples_; }
    const std::array<u64, kAlphabet + 1>& cumulative() const
    {
        return c_;
    }
    /** True when the flat arrays view external (mmap) storage. */
    bool isView() const { return backing_ != nullptr; }

    /** Occ checkpoint spacing this index was built with. */
    u32 blockLen() const { return block_len_; }

    /** Length of the indexed reference (one strand). */
    u64 referenceLength() const { return ref_len_; }

    /** Length of the BWT string (2*ref + 2). */
    u64 bwtLength() const { return n_; }

    /** Memory footprint of the occ structure in bytes. */
    u64 occBytes() const { return occ_.size() * sizeof(u64); }

    /** BWT[i], read from its occ line's planes (i < bwtLength()). */
    u8
    symbolAt(u64 i) const
    {
        const u64 block = blockIndex(i);
        const u32 rem = static_cast<u32>(i - block * block_len_);
        const u64* p =
            &occ_[block * block_words_ + 3 + 3 * (rem / kLineSymbols)];
        const u32 r = rem % kLineSymbols;
        return static_cast<u8>(((p[0] >> r) & 1) | ((p[1] >> r) & 1) << 1 |
                               ((p[2] >> r) & 1) << 2);
    }

    /**
     * Bit j set where the triple's symbol j has code c: each plane
     * taken as is where c's bit is set and inverted where it is clear
     * (and/andnot once c is a constant).
     */
    static u64
    symbolBits(const u64* planes, u32 c)
    {
        return (c & 1 ? planes[0] : ~planes[0]) &
               (c & 2 ? planes[1] : ~planes[1]) &
               (c & 4 ? planes[2] : ~planes[2]);
    }

    /** Bi-interval of the single base with 2-bit code `base`. */
    BiInterval baseInterval(u8 base) const;

    /**
     * occ counts of all 6 symbols in BWT[0, i).
     *
     * One occ-line access per call; the probe sees the real line
     * address so the cache simulator reproduces the fmi access
     * pattern. Each symbol adds one popcount per plane triple before
     * i's to its checkpoint, the last under a live mask of the
     * positions below i. At the default 64-symbol blocks that is one
     * 64-byte load and ~12 modeled int ops; a block_len of 64·m
     * charges the lines up to i's triple and 12 ops per triple.
     */
    template <typename Probe>
    std::array<u64, kAlphabet>
    occAll(u64 i, Probe& probe) const
    {
        const u64 block = blockIndex(i);
        const u64* line = &occ_[block * block_words_];
        const u32 rem = static_cast<u32>(i - block * block_len_);
        const u32 last = rem / kLineSymbols;
        probe.load(line, roundUp<u32>(24 * (last + 2), 64));
        probe.op(OpClass::kIntAlu, 12 * (last + 1));
        std::array<u64, kAlphabet> occ;
        for (u32 c = 0; c < kAlphabet; ++c) occ[c] = checkpoint(line, c);
        // __builtin_popcountll, not std::popcount: a builtin expands in
        // place, so the POPCNT copy can never call the generic one.
        for (u32 t = 0; t <= last; ++t) {
            const u64* p = line + 3 + 3 * t;
            const u64 live = t < last ? ~u64{0}
                                      : (u64{1} << (rem % kLineSymbols)) - 1;
            for (u32 c = 0; c < kAlphabet; ++c) {
                occ[c] += static_cast<u64>(
                    __builtin_popcountll(symbolBits(p, c) & live));
            }
        }
        return occ;
    }

    /**
     * occ counts at both ends of an interval (lo <= hi): exactly
     * occAll(lo) followed by occAll(hi), in results and probe traffic.
     * Used by the one-continuation extension steps below.
     */
    template <typename Probe>
    void
    occAllPair(u64 lo, u64 hi, std::array<u64, kAlphabet>& out_lo,
               std::array<u64, kAlphabet>& out_hi, Probe& probe) const
    {
        out_lo = occAll(lo, probe);
        out_hi = occAll(hi, probe);
    }

    /**
     * Backward extension: pattern P -> cP for every base c at once.
     *
     * @param ik  Interval of P.
     * @param[out] out out[c] is the interval of cP, c in 0..3
     *             (2-bit base codes).
     */
    template <typename Probe>
    void
    extendBackward(const BiInterval& ik, std::array<BiInterval, 4>& out,
                   Probe& probe) const
    {
        const auto occ_lo = occAll(ik.k, probe);
        const auto occ_hi = occAll(ik.k + ik.s, probe);
        backwardFromOcc(ik, occ_lo, occ_hi, out, probe);
    }

    /**
     * Forward extension: pattern P -> Pc for every base c at once.
     * Implemented as backward extension of the reverse complement.
     * smemsAt() takes the one-continuation step instead; the tests
     * keep this as its oracle.
     */
    template <typename Probe>
    void
    extendForward(const BiInterval& ik, std::array<BiInterval, 4>& out,
                  Probe& probe) const
    {
        BiInterval swapped = ik;
        std::swap(swapped.k, swapped.l);
        std::array<BiInterval, 4> tmp;
        extendBackward(swapped, tmp, probe);
        for (u32 c = 0; c < 4; ++c) {
            out[c] = tmp[3 - c]; // extension by c = rc-extension by comp
            std::swap(out[c].k, out[c].l);
        }
    }

    /**
     * Fused backward extension of only the base-`c` continuation:
     * the result equals extendBackward()'s out[c]. smemsAt() consumes
     * exactly one continuation per step, so skipping the other three
     * intervals is pure compute savings; the modeled probe traffic is
     * unchanged (the occ lookups are identical and the extension
     * arithmetic is charged at the 4-way step's rate — all four
     * continuation sizes must be resolved anyway for `l`).
     */
    template <typename Probe>
    BiInterval
    extendBackwardOneFused(const BiInterval& ik, u8 c,
                           Probe& probe) const
    {
        std::array<u64, kAlphabet> occ_lo;
        std::array<u64, kAlphabet> occ_hi;
        occAllPair(ik.k, ik.k + ik.s, occ_lo, occ_hi, probe);
        std::array<u64, 4> size;
        u64 acgt_total = 0;
        for (u32 b = 0; b < 4; ++b) {
            size[b] = occ_hi[b + 2] - occ_lo[b + 2];
            acgt_total += size[b];
        }
        const u64 s_rem = ik.s - acgt_total;
        u64 suffix_sum = 0;
        for (u32 y = c + 1u; y < 4; ++y) suffix_sum += size[y];
        probe.op(OpClass::kIntAlu, 24);
        BiInterval out;
        out.k = c_[c + 2] + occ_lo[c + 2];
        out.s = size[c];
        out.l = ik.l + s_rem + suffix_sum;
        out.begin = ik.begin;
        out.end = ik.end;
        return out;
    }

    /** Forward counterpart of extendBackwardOneFused (swap trick). */
    template <typename Probe>
    BiInterval
    extendForwardOneFused(const BiInterval& ik, u8 c,
                          Probe& probe) const
    {
        BiInterval swapped = ik;
        std::swap(swapped.k, swapped.l);
        BiInterval out = extendBackwardOneFused(
            swapped, static_cast<u8>(3 - c), probe);
        std::swap(out.k, out.l);
        return out;
    }

    /**
     * SMEMs through query position x (bwt_smem1).
     *
     * @param query     2-bit codes; values >= 4 are ambiguous.
     * @param x         Pivot position.
     * @param min_intv  Stop extension below this interval size (>= 1).
     * @param[out] mems SMEMs covering x, sorted by start; appended.
     * @param scratch   Candidate buffers, reused across calls.
     * @return Position from which the next search should start
     *         (end of the longest match through x).
     */
    template <typename Probe>
    i32
    smemsAt(std::span<const u8> query, i32 x, u64 min_intv,
            std::vector<Smem>& mems, SmemScratch& scratch,
            Probe& probe) const
    {
        const i32 len = static_cast<i32>(query.size());
        if (x >= len || query[x] >= 4) return x + 1;
        if (min_intv < 1) min_intv = 1;

        std::vector<BiInterval>& prev = scratch.prev;
        std::vector<BiInterval>& curr = scratch.curr;
        curr.clear();

        BiInterval ik = baseInterval(query[x]);
        ik.begin = x;
        ik.end = x + 1;

        // Forward extension, recording every interval-size change.
        i32 i = x + 1;
        for (; i < len; ++i) {
            probe.branch(0, query[i] < 4);
            if (query[i] < 4) {
                const BiInterval ext =
                    extendForwardOneFused(ik, query[i], probe);
                probe.branch(1, ext.s != ik.s);
                if (ext.s != ik.s) {
                    curr.push_back(ik);
                    if (ext.s < min_intv) break;
                }
                ik = ext;
                ik.end = i + 1;
            } else {
                curr.push_back(ik);
                break;
            }
        }
        if (i == len) curr.push_back(ik);
        // Longer matches (smaller intervals) first.
        std::reverse(curr.begin(), curr.end());
        const i32 ret = curr.front().end;
        std::swap(curr, prev);

        const size_t mems_before = mems.size();
        // Backward extension of all candidates in lockstep.
        for (i = x - 1; i >= -1; --i) {
            const i32 c =
                i < 0 ? -1 : (query[i] < 4 ? query[i] : -1);
            curr.clear();
            for (const BiInterval& p : prev) {
                BiInterval ext;
                if (c >= 0) {
                    ext = extendBackwardOneFused(p, static_cast<u8>(c),
                                                 probe);
                }
                const bool fail = c < 0 || ext.s < min_intv;
                probe.branch(2, fail);
                if (fail) {
                    // p cannot be extended: it is an SMEM unless a
                    // longer candidate already produced one here.
                    if (curr.empty() &&
                        (mems.size() == mems_before ||
                         i + 1 < mems.back().begin)) {
                        Smem m = p;
                        m.begin = i + 1;
                        mems.push_back(m);
                    }
                } else if (curr.empty() || ext.s != curr.back().s) {
                    curr.push_back(ext); // begin updated on emission
                }
            }
            if (curr.empty()) break;
            std::swap(curr, prev);
        }
        std::reverse(mems.begin() + static_cast<i64>(mems_before),
                     mems.end());
        return ret;
    }

    /**
     * All SMEMs of a query of at least `min_len` bases (the fmi
     * kernel's per-read work), appended to `out`.
     */
    template <typename Probe>
    void
    smems(std::span<const u8> query, i32 min_len, std::vector<Smem>& out,
          Probe& probe) const
    {
        SmemScratch scratch;
        const auto first = static_cast<i64>(out.size());
        i32 x = 0;
        const i32 len = static_cast<i32>(query.size());
        while (x < len) {
            x = smemsAt(query, x, 1, out, scratch, probe);
        }
        out.erase(std::remove_if(out.begin() + first, out.end(),
                                 [&](const Smem& m) {
                                     return m.length() < min_len;
                                 }),
                  out.end());
    }

    /**
     * The production call: smems() without instrumentation. At the
     * sse4/avx2 dispatch levels it runs a copy compiled with POPCNT;
     * at GB_SIMD_LEVEL=scalar (or without POPCNT support in the
     * build) it runs the generic instantiation. Same SMEMs either way.
     */
    void smems(std::span<const u8> query, i32 min_len,
               std::vector<Smem>& out, NullProbe& probe) const;

    /** Count occurrences of an ACGT pattern (both strands). */
    u64 count(std::string_view pattern) const;

    /**
     * Reference positions (forward strand) of every occurrence of the
     * interval's pattern. Positions on the reverse strand are reported
     * as the forward-strand start of the reverse-complement site with
     * `reverse` set.
     */
    struct Hit
    {
        u64 pos;
        bool reverse;
    };
    std::vector<Hit> locate(const BiInterval& interval,
                            u64 max_hits = 0) const;

  private:
    /**
     * Checkpoint block of BWT position i. block_len_ is a power of
     * two in every shipped layout, so the common case is a shift; the
     * division only runs for other multiples of 64 (e.g. the
     * 448-symbol ablation point).
     */
    u64
    blockIndex(u64 i) const
    {
        if ((block_len_ & (block_len_ - 1)) == 0) {
            return i >> std::countr_zero(block_len_);
        }
        return i / block_len_;
    }

    /** Symbol c's checkpoint count: u32 c of the line's first words. */
    static u32
    checkpoint(const u64* line, u32 c)
    {
        return static_cast<u32>(line[c / 2] >> (32 * (c % 2)));
    }

    /** Shared tail of the backward extension: interval arithmetic
     *  from the two occ vectors (Li 2012, bwt_extend). */
    template <typename Probe>
    void
    backwardFromOcc(const BiInterval& ik,
                    const std::array<u64, kAlphabet>& occ_lo,
                    const std::array<u64, kAlphabet>& occ_hi,
                    std::array<BiInterval, 4>& out, Probe& probe) const
    {
        std::array<u64, 4> size{};
        u64 acgt_total = 0;
        for (u32 b = 0; b < 4; ++b) {
            size[b] = occ_hi[b + 2] - occ_lo[b + 2];
            acgt_total += size[b];
        }
        const u64 s_rem = ik.s - acgt_total; // sentinel/separator hits

        // l-interval order inside [l, l+s): first the non-ACGT
        // continuations, then rc(P)x for x = A < C < G < T, whose
        // sizes equal size[comp(x)]. Hence for new char c:
        // l' = l + s_rem + sum_{y > c} size[y].
        u64 suffix_sum = 0;
        probe.op(OpClass::kIntAlu, 24);
        for (i32 c = 3; c >= 0; --c) {
            out[c].k = c_[c + 2] + occ_lo[c + 2];
            out[c].s = size[c];
            out[c].l = ik.l + s_rem + suffix_sum;
            out[c].begin = ik.begin;
            out[c].end = ik.end;
            suffix_sum += size[c];
        }
    }

    /**
     * occ of one symbol in BWT[0, i), no probe: locate's LF step
     * (one popcount per plane triple instead of occAll's six).
     */
    u64 occOne(u8 symbol, u64 i) const;

    static constexpr u64 kNotSampled = ~u64{0};

    /**
     * Index into sa_samples_ of `row`'s sample, read from its occ
     * line: the line's sample count plus the marks below the row; or
     * kNotSampled when the row is not marked.
     */
    u64 sampleNumber(u64 row) const;

    /**
     * smems(..., NullProbe&) at the sse4/avx2 levels; defined in
     * fm_index_popcnt.cc, which is compiled with -mpopcnt.
     */
    void smemsPopcnt(std::span<const u8> query, i32 min_len,
                     std::vector<Smem>& out) const;

    /**
     * Validate header fields, array sizes and cumulative counts, then
     * the occ lines in one O(n/64) word pass: block 0's checkpoints
     * are 0, each checkpoint step equals its block's popcounts, the
     * last block ends at the totals, no position holds code 6 or 7
     * (p1 & p2), no plane or mark bit is set past n, each sample
     * count equals the marks before its line, the marks total the
     * ceil(n / kSaSampleRate) samples, and the pad words are zero. So
     * every symbol a rank query can read is one of the six and every
     * sample number indexes the samples. Then each sample must be a
     * sampled position below n.
     */
    static void checkParts(u64 ref_len, u64 n, u32 block_len,
                           const std::array<u64, kAlphabet + 1>& c,
                           std::span<const u64> occ,
                           std::span<const u32> sa_samples);

    /**
     * u64 words per block, whole lines: 3 of counts, 4 per 64 symbols
     * (3 planes and a mark word) and the sample count. Planes come
     * first, at 3 + 3t, then the m mark words, then the count.
     */
    static u32
    blockWords(u32 block_len)
    {
        return roundUp<u32>(4 + 4 * (block_len / kLineSymbols), 8);
    }

    /** Word of a block of `triples` plane triples holding its sample
     *  count: the samples in all earlier blocks. */
    static u32
    sampleCountWord(u32 triples)
    {
        return 3 + 4 * triples;
    }

    struct AlignedFree
    {
        void
        operator()(u64* p) const
        {
            ::operator delete[](p, std::align_val_t{64});
        }
    };

    u64 ref_len_ = 0;
    u64 n_ = 0;                   ///< BWT length
    u32 block_len_ = 64;
    u32 block_words_ = blockWords(64);
    std::array<u64, kAlphabet + 1> c_{}; ///< cumulative symbol counts

    // Owned storage (empty when viewing an external backing); the occ
    // lines are 64-byte aligned so each is one cache line.
    std::unique_ptr<u64[], AlignedFree> occ_own_;
    std::vector<u32> sa_own_;

    // The arrays the query paths index into: either the owned buffers
    // above or flat sections of `backing_`.
    std::span<const u64> occ_; ///< occ lines, block_words_ per block
    std::span<const u32> sa_samples_; ///< SA of the marked rows
    std::shared_ptr<const void> backing_; ///< keepalive for views
};

} // namespace gb

#endif // GB_INDEX_FM_INDEX_H
