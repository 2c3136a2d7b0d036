/**
 * @file
 * Width-generic abea band kernel, instantiated once per ISA (see
 * vec.h for the inclusion protocol).
 *
 * Per lane, the same float operations as the template's cell loop in
 * src/abea/abea.cc, in the same order:
 *
 *   z     = (event - level_mean) / level_stdv
 *   emis  = ((-0.5 * z) * z - log_stdv) - log(sqrt(2 pi))
 *   diag' = (diag + lp_step) + emis
 *   up'   = (up + lp_stay) + emis
 *   left' = left + lp_skip
 *   best  = diag', then up' if up' > best, then left' if left' > best
 *
 * and the cell and its traceback byte change only where best > cur.
 * Lanes at or past n (the chunk overrun) are masked out of both
 * stores, so they write back what they loaded.
 */
#include "simd/abea_engine.h"
#include "simd/vec.h"

namespace gb::simd::detail {

namespace {

void
abeaBandVec(const AbeaBand& band)
{
    constexpr u32 W = kF32Lanes;
    const VecF32 lp_step = vSet1F32(band.lp_step);
    const VecF32 lp_stay = vSet1F32(band.lp_stay);
    const VecF32 lp_skip = vSet1F32(band.lp_skip);
    const VecF32 minus_half = vSet1F32(-0.5f);
    const VecF32 log_sqrt_2pi = vSet1F32(kAbeaLogSqrt2Pi);
    const VecI32 n = vSet1I32(static_cast<i32>(band.n));
    const VecI32 from_diag = vSet1I32(kAbeaFromDiag);
    const VecI32 from_up = vSet1I32(kAbeaFromUp);
    const VecI32 from_left = vSet1I32(kAbeaFromLeft);

    for (u32 i = 0; i < band.n; i += W) {
        const VecF32 z = vDivF32(
            vSubF32(vLoadF32(band.event_mean + i),
                    vLoadF32(band.level_mean + i)),
            vLoadF32(band.level_stdv + i));
        const VecF32 emis = vSubF32(
            vSubF32(vMulF32(vMulF32(minus_half, z), z),
                    vLoadF32(band.log_stdv + i)),
            log_sqrt_2pi);

        const VecF32 score_d =
            vAddF32(vAddF32(vLoadF32(band.diag + i), lp_step), emis);
        const VecF32 score_u =
            vAddF32(vAddF32(vLoadF32(band.up + i), lp_stay), emis);
        const VecF32 score_l = vAddF32(vLoadF32(band.left + i), lp_skip);

        const VecF32 up_wins = vCmpGtF32(score_u, score_d);
        VecF32 best = vSelectF32(up_wins, score_u, score_d);
        const VecF32 left_wins = vCmpGtF32(score_l, best);
        best = vSelectF32(left_wins, score_l, best);

        const VecF32 stored = vLoadF32(band.cur + i);
        const VecI32 update =
            vAndI32(vF32Bits(vCmpGtF32(best, stored)),
                    vCmpGtI32(n, vIotaI32(static_cast<i32>(i))));
        vStoreF32(band.cur + i,
                  vSelectF32(vF32FromBits(update), best, stored));

        const VecI32 from = vSelectI32(
            vF32Bits(left_wins), from_left,
            vSelectI32(vF32Bits(up_wins), from_up, from_diag));
        vStoreBytesI32(band.trace + i,
                       vSelectI32(update, from,
                                  vLoadBytesI32(band.trace + i)));
    }
}

} // namespace

} // namespace gb::simd::detail
