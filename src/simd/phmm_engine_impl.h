/**
 * @file
 * Width- and precision-generic anti-diagonal PairHMM kernel,
 * instantiated once per ISA (see vec.h for the inclusion protocol) for
 * float (the first pass) and double (the underflow re-run).
 *
 * Storage is diagonal-major: buffer slot i on diagonal d is cell
 * (i, d - i), so all three recurrences become elementwise vector ops
 * with +/-1 slot shifts against the previous two diagonals:
 *
 *   M(i,j) <- prev2[i-1]   I(i,j) <- prev1[i-1]   D(i,j) <- prev1[i]
 *
 * The haplotype is consumed through a reversed copy so that, along a
 * diagonal, both sequence reads are ascending contiguous byte loads.
 * Vector chunks overrun the valid lane range [ilo, ihi] by up to
 * W - 1 slots, and nothing repairs them; only row 0 (slot 0, the free
 * start along the haplotype) is written outside the chunk loop.
 * Overrun slots with i > m are rows no valid cell reads. Overrun slots with i >= d are columns j <= 0,
 * and every such slot with i >= 1 holds +0: the buffers start at
 * zero, and a j <= 0 slot is computed only from other j <= 0 slots
 * and from M/I at (0, 0), which are 0, as non-negative multiples and
 * sums of +0. A slot the chunks skip keeps what it held three
 * diagonals earlier, at column j - 3 < 0, which is +0 too. So column 0
 * reads +0, as the scalar recurrence's boundary does (docs/simd.md).
 * Per-cell arithmetic is the same expression as forwardScaled<T>.
 */
#include <algorithm>

#include "simd/engines_internal.h"
#include "simd/vec.h"

namespace gb::simd::detail {

namespace {

/** The vec.h operations of one precision, under one set of names. */
template <typename T>
struct PhmmVec;

template <>
struct PhmmVec<float>
{
    using V = VecF32;
    static constexpr u32 kW = kF32Lanes;
    static V set1(float x) { return vSet1F32(x); }
    static V load(const float* p) { return vLoadF32(p); }
    static void store(float* p, V v) { vStoreF32(p, v); }
    static V add(V a, V b) { return vAddF32(a, b); }
    static V mul(V a, V b) { return vMulF32(a, b); }
    static V select(V mask, V a, V b) { return vSelectF32(mask, a, b); }
    static V match(const u8* a, const u8* b)
    {
        return vByteMatchMaskF32(a, b);
    }
};

template <>
struct PhmmVec<double>
{
    using V = VecF64;
    static constexpr u32 kW = kF64Lanes;
    static V set1(double x) { return vSet1F64(x); }
    static V load(const double* p) { return vLoadF64(p); }
    static void store(double* p, V v) { vStoreF64(p, v); }
    static V add(V a, V b) { return vAddF64(a, b); }
    static V mul(V a, V b) { return vMulF64(a, b); }
    static V select(V mask, V a, V b) { return vSelectF64(mask, a, b); }
    static V match(const u8* a, const u8* b)
    {
        return vByteMatchMaskF64(a, b);
    }
};

template <typename T>
T
phmmForward(const PhmmInput<T>& input)
{
    // A local copy: the vector stores into the caller's buffers may
    // alias any memory, so fields read through the reference would be
    // reloaded after every chunk's stores.
    const PhmmInput<T> in = input;
    using Ops = PhmmVec<T>;
    using V = typename Ops::V;
    constexpr u32 W = Ops::kW;
    static_assert(W <= kMaxLanes);
    const i32 m = static_cast<i32>(in.m);
    const i32 n = static_cast<i32>(in.n);

    // Nine diagonal buffers (3 states x prev2/prev1/cur), slot i in
    // 0..m plus W slots of chunk-overrun headroom, zero-initialised
    // by the caller.
    const size_t len = static_cast<size_t>(m) + 1 + W;
    T* mv[3]; // [0]=prev2, [1]=prev1, [2]=cur
    T* iv[3];
    T* dv[3];
    for (int k = 0; k < 3; ++k) {
        mv[k] = in.cells + static_cast<size_t>(k) * len;
        iv[k] = in.cells + static_cast<size_t>(3 + k) * len;
        dv[k] = in.cells + static_cast<size_t>(6 + k) * len;
    }
    // Diagonal 0 is cell (0, 0): row-0 deletion mass carries init.
    dv[1][0] = in.init;

    const V mm_v = Ops::set1(in.t_mm);
    const V mi_v = Ops::set1(in.t_mi);
    const V md_v = Ops::set1(in.t_md);
    const V im_v = Ops::set1(in.t_im);
    const V ii_v = Ops::set1(in.t_ii);

    T sum = 0;
    for (i32 d = 1; d <= m + n; ++d) {
        const i32 ilo = std::max(1, d - n);
        const i32 ihi = std::min(m, d - 1);
        T* cm = mv[2];
        T* ci = iv[2];
        T* cd = dv[2];

        for (i32 i0 = ilo; i0 <= ihi; i0 += static_cast<i32>(W)) {
            const V mp2 = Ops::load(mv[0] + i0 - 1);
            const V ip2 = Ops::load(iv[0] + i0 - 1);
            const V dp2 = Ops::load(dv[0] + i0 - 1);
            const V mp1_up = Ops::load(mv[1] + i0 - 1);
            const V ip1_up = Ops::load(iv[1] + i0 - 1);
            const V mp1_left = Ops::load(mv[1] + i0);
            const V dp1_left = Ops::load(dv[1] + i0);

            const V match = Ops::match(in.read + i0 - 1,
                                       in.hap_rev + (n - d + i0));
            const V prior =
                Ops::select(match, Ops::load(in.prior_match + i0 - 1),
                            Ops::load(in.prior_mismatch + i0 - 1));

            const V m_cur = Ops::mul(
                prior, Ops::add(Ops::mul(mp2, mm_v),
                                Ops::mul(Ops::add(ip2, dp2), im_v)));
            const V i_cur = Ops::add(Ops::mul(mp1_up, mi_v),
                                     Ops::mul(ip1_up, ii_v));
            const V d_cur = Ops::add(Ops::mul(mp1_left, md_v),
                                     Ops::mul(dp1_left, ii_v));
            Ops::store(cm + i0, m_cur);
            Ops::store(ci + i0, i_cur);
            Ops::store(cd + i0, d_cur);
        }

        // Row 0: the free start along the haplotype. Column 0 needs
        // no write: its slot already holds +0 (see the file comment).
        if (d <= n) {
            cm[0] = 0;
            ci[0] = 0;
            cd[0] = in.init;
        }

        // Final-row cell of this diagonal: same j-ascending
        // accumulation order as the scalar epilogue.
        if (d > m) sum += cm[m] + ci[m];

        T* const tm = mv[0];
        T* const ti = iv[0];
        T* const td = dv[0];
        mv[0] = mv[1]; mv[1] = mv[2]; mv[2] = tm;
        iv[0] = iv[1]; iv[1] = iv[2]; iv[2] = ti;
        dv[0] = dv[1]; dv[1] = dv[2]; dv[2] = td;
    }
    return sum;
}

} // namespace

} // namespace gb::simd::detail
