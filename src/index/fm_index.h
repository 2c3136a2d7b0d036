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
 * The occurrence table is organized in checkpoint blocks of 64 BWT
 * symbols (6 x u32 counts + 64 bytes of BWT), so each occ() lookup
 * touches one ~1.5-cache-line block — the irregular large-working-set
 * access pattern the paper characterizes (two lookups per extension,
 * ">80 % of occ-table accesses open a new DRAM page").
 *
 * Hot-path methods are templated on a Probe policy (see arch/probe.h);
 * instantiate with NullProbe for production use.
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
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "arch/probe.h"
#include "simd/occ_engine.h"
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
 * FM-index over reference + reverse complement with sampled SA.
 */
class FmIndex
{
  public:
    /** Symbol codes inside the index. */
    static constexpr u8 kSentinel = 0; ///< terminator (once, at end)
    static constexpr u8 kSeparator = 1; ///< between the two strands
    static constexpr u32 kAlphabet = 6; ///< $, #, A, C, G, T
    static constexpr u32 kSaSampleRate = 32;
    static constexpr u32 kUnsampled = 0xffffffffu;

    /**
     * Build the index for an ACGT reference (case-insensitive;
     * throws InputError on N or other characters).
     *
     * @param block_len BWT symbols per occ checkpoint (default 64,
     *        BWA-MEM2-like; larger blocks shrink the index but
     *        lengthen every occ scan — see the occ-spacing ablation
     *        bench).
     */
    static FmIndex build(std::string_view reference,
                         u32 block_len = 64);

    FmIndex() = default;
    // Move-only: the occ/BWT/SA spans point into the owned vectors or
    // into an mmap backing, and a move keeps both valid (vector moves
    // keep heap buffers alive).
    FmIndex(const FmIndex&) = delete;
    FmIndex& operator=(const FmIndex&) = delete;
    FmIndex(FmIndex&&) noexcept = default;
    FmIndex& operator=(FmIndex&&) noexcept = default;

    /**
     * Assemble an index over externally-owned flat arrays without
     * copying them (the gb::store mmap load path). `backing` is held
     * for the index's lifetime and must keep the spans valid — e.g.
     * the store::StoreReader whose mapping they point into. Throws
     * InputError unless the header fields, the array sizes and the
     * cumulative counts are consistent with each other.
     */
    static FmIndex fromViews(u64 ref_len, u32 block_len,
                             const std::array<u64, kAlphabet + 1>& c,
                             std::span<const u32> counts,
                             std::span<const u8> bwt,
                             std::span<const u32> sa_samples,
                             std::shared_ptr<const void> backing);

    /** Constituent-array accessors (for gb::store). */
    std::span<const u32> occCounts() const { return counts_; }
    std::span<const u8> bwtData() const { return bwt_; }
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
    u64
    occBytes() const
    {
        return counts_.size() * sizeof(u32) + bwt_.size();
    }

    /** Bi-interval of the single base with 2-bit code `base`. */
    BiInterval baseInterval(u8 base) const;

    /**
     * occ counts of all 6 symbols in BWT[0, i).
     *
     * One checkpoint-block access per call; the probe sees the real
     * block address so the cache simulator reproduces the fmi access
     * pattern. The partial block is resolved with the runtime-
     * dispatched popcount-over-bit-planes counter (simd::occCount),
     * bit-identical to a byte loop at every dispatch level; the
     * modeled cost stays ~12 scalar ops either way. A block-aligned
     * `i` touches only the checkpoint: no BWT bytes are scanned and
     * none are charged to the probe.
     */
    template <typename Probe>
    std::array<u64, kAlphabet>
    occAll(u64 i, Probe& probe) const
    {
        const u64 block_idx = blockIndex(i);
        const u32* block_counts = &counts_[block_idx * kAlphabet];
        probe.load(block_counts, kAlphabet * sizeof(u32));
        std::array<u64, kAlphabet> counts;
        for (u32 c = 0; c < kAlphabet; ++c) counts[c] = block_counts[c];
        const u64 base = block_idx * block_len_;
        const u32 rem = static_cast<u32>(i - base);
        if (rem) {
            probe.load(&bwt_[base], rem);
            scanOcc(&bwt_[base], rem, counts.data());
        }
        probe.op(OpClass::kIntAlu, 12);
        return counts;
    }

    /**
     * occ counts at both ends of an interval (lo <= hi) with one call:
     * probe traffic is exactly occAll(lo) followed by occAll(hi), but
     * when both positions fall in the same checkpoint block — the
     * common case once an interval has narrowed — the shared prefix
     * [block start, lo) is scanned once and hi's counts continue
     * incrementally from lo's. Used by the one-continuation
     * extension steps below.
     */
    template <typename Probe>
    void
    occAllPair(u64 lo, u64 hi, std::array<u64, kAlphabet>& out_lo,
               std::array<u64, kAlphabet>& out_hi, Probe& probe) const
    {
        const u64 block_lo = blockIndex(lo);
        const u32* counts_lo = &counts_[block_lo * kAlphabet];
        probe.load(counts_lo, kAlphabet * sizeof(u32));
        for (u32 c = 0; c < kAlphabet; ++c) out_lo[c] = counts_lo[c];
        const u64 base_lo = block_lo * block_len_;
        const u32 rem_lo = static_cast<u32>(lo - base_lo);
        if (rem_lo) {
            probe.load(&bwt_[base_lo], rem_lo);
            scanOcc(&bwt_[base_lo], rem_lo, out_lo.data());
        }
        probe.op(OpClass::kIntAlu, 12);

        const u64 block_hi = blockIndex(hi);
        const u32* counts_hi = &counts_[block_hi * kAlphabet];
        probe.load(counts_hi, kAlphabet * sizeof(u32));
        const u64 base_hi = block_hi * block_len_;
        const u32 rem_hi = static_cast<u32>(hi - base_hi);
        if (block_hi == block_lo) {
            out_hi = out_lo;
            if (rem_hi) {
                probe.load(&bwt_[base_hi], rem_hi);
                if (rem_hi > rem_lo) {
                    scanOcc(&bwt_[base_lo + rem_lo], rem_hi - rem_lo,
                            out_hi.data());
                }
            }
        } else {
            for (u32 c = 0; c < kAlphabet; ++c) {
                out_hi[c] = counts_hi[c];
            }
            if (rem_hi) {
                probe.load(&bwt_[base_hi], rem_hi);
                scanOcc(&bwt_[base_hi], rem_hi, out_hi.data());
            }
        }
        probe.op(OpClass::kIntAlu, 12);
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
     * @return Position from which the next search should start
     *         (end of the longest match through x).
     */
    template <typename Probe>
    i32
    smemsAt(std::span<const u8> query, i32 x, u64 min_intv,
            std::vector<Smem>& mems, Probe& probe) const
    {
        const i32 len = static_cast<i32>(query.size());
        if (x >= len || query[x] >= 4) return x + 1;
        if (min_intv < 1) min_intv = 1;

        std::vector<BiInterval> prev;
        std::vector<BiInterval> curr;

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
     * kernel's per-read work).
     */
    template <typename Probe>
    void
    smems(std::span<const u8> query, i32 min_len, std::vector<Smem>& out,
          Probe& probe) const
    {
        std::vector<Smem> all;
        i32 x = 0;
        const i32 len = static_cast<i32>(query.size());
        while (x < len) {
            x = smemsAt(query, x, 1, all, probe);
        }
        for (const Smem& m : all) {
            if (m.length() >= min_len) out.push_back(m);
        }
    }

    /** Count occurrences of an ACGT pattern (both strands). */
    u64 count(std::string_view pattern) const;

    /**
     * Inexact search: SA intervals of every string within
     * `max_mismatches` substitutions of the pattern that occurs in
     * the index (the FM-index capability the paper highlights:
     * "support for inexact matching ... with a small number of
     * edits"). Intervals are disjoint (distinct strings) and carry
     * begin=0, end=pattern length.
     *
     * Cost grows as O(|Q| * 3^z); callers should keep z <= 3.
     */
    std::vector<BiInterval>
    searchInexact(std::span<const u8> pattern,
                  u32 max_mismatches) const;

    /** Total occurrences within `max_mismatches` substitutions. */
    u64 countInexact(std::string_view pattern,
                     u32 max_mismatches) const;

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
     * division only runs for exotic spacings (e.g. the 448-symbol
     * ablation point).
     */
    u64
    blockIndex(u64 i) const
    {
        if ((block_len_ & (block_len_ - 1)) == 0) {
            return i >> std::countr_zero(block_len_);
        }
        return i / block_len_;
    }

    /**
     * Dispatched SIMD count of the partial-block bytes [p, p + len)
     * into counts[0..5]. Uses the in-place padded counter whenever the
     * chunk-rounded read stays inside the BWT span — every block but
     * possibly the final one — and falls back to the staging-copy
     * variant at the BWT's edge (mmap-backed views may end exactly at
     * the mapping boundary). Identical results either way.
     */
    void
    scanOcc(const u8* p, u32 len, u64* counts) const
    {
        const u32 padded =
            (len + (simd::kOccPad - 1)) & ~(simd::kOccPad - 1);
        if (padded <= bwt_.data() + bwt_.size() - p) {
            simd::occCountPadded(p, len, counts);
        } else {
            simd::occCount(p, len, counts);
        }
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

    /** occ for one symbol, no probe (used by locate's LF walk). */
    u64 occOne(u8 symbol, u64 i) const;

    /**
     * Validate header fields, array sizes, cumulative counts, the occ
     * checkpoints (each symbol's run starts at 0 and ends at its
     * total) and the BWT against them (every byte in [0, n) is a
     * symbol, and each block's symbol counts are the step between its
     * two checkpoints), so no rank query can leave the BWT.
     */
    static void checkParts(u64 ref_len, u64 n, u32 block_len,
                           const std::array<u64, kAlphabet + 1>& c,
                           std::span<const u32> counts,
                           std::span<const u8> bwt, u64 sa_size);

    u64 ref_len_ = 0;
    u64 n_ = 0;                   ///< BWT length
    u32 block_len_ = 64;
    std::array<u64, kAlphabet + 1> c_{}; ///< cumulative symbol counts

    // Owned storage (empty when viewing an external backing).
    std::vector<u32> counts_own_;
    std::vector<u8> bwt_own_;
    std::vector<u32> sa_own_;

    // The arrays the query paths index into: either the owned vectors
    // above or flat sections of `backing_`.
    std::span<const u32> counts_; ///< per-block checkpoint counts
    std::span<const u8> bwt_;     ///< the BWT string itself
    std::span<const u32> sa_samples_; ///< SA[i], kSaSampleRate-sampled
    std::shared_ptr<const void> backing_; ///< keepalive for views
};

} // namespace gb

#endif // GB_INDEX_FM_INDEX_H
