/**
 * @file
 * Fixed-width vector primitives for the gb::simd engine templates.
 *
 * This header is multi-included: each engine translation unit defines
 * exactly one of GB_SIMD_TARGET_SSE4 / GB_SIMD_TARGET_AVX2 before
 * including an *_impl.h header, which pulls this in to get a uniform
 * set of types and inline functions over that instruction set:
 *
 *   VecI16          kI16Lanes x signed 16-bit lanes (saturating ops)
 *   VecI32          kI32Lanes x signed 32-bit lanes
 *   VecF32          kF32Lanes x single-precision lanes
 *   VecF64          kF64Lanes x double-precision lanes
 *
 * The engine templates are written once against this API; the per-ISA
 * .cc files are compiled with the matching -m flags (see
 * src/simd/CMakeLists.txt) and exported under ISA-suffixed names that
 * the dispatch tables in bsw_engine.cc / phmm_engine.cc select at
 * runtime. There is no scalar instantiation of this header — the
 * scalar fallback is the pre-existing portable kernel itself.
 */
#ifndef GB_SIMD_TARGET_SSE4
#ifndef GB_SIMD_TARGET_AVX2
#error "vec.h requires GB_SIMD_TARGET_SSE4 or GB_SIMD_TARGET_AVX2"
#endif
#endif

#include <immintrin.h>

#include "util/common.h"

namespace gb::simd {

#if defined(GB_SIMD_TARGET_AVX2)

inline constexpr u32 kI16Lanes = 16;
inline constexpr u32 kI32Lanes = 8;
inline constexpr u32 kF32Lanes = 8;
inline constexpr u32 kF64Lanes = 4;

using VecI16 = __m256i;
using VecI32 = __m256i;
using VecF32 = __m256;
using VecF64 = __m256d;

// ---- 32-bit integer lanes -------------------------------------------
inline VecI32 vSet1I32(i32 x) { return _mm256_set1_epi32(x); }
inline VecI32 vLoadI32(const i32* p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void vStoreI32(i32* p, VecI32 v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
/** Widen kI32Lanes unsigned bytes to 32-bit lanes. */
inline VecI32 vLoadBytesI32(const u8* p)
{
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}
/** Lanes {base, base+1, ..., base+kI32Lanes-1}. */
inline VecI32 vIotaI32(i32 base)
{
    return _mm256_add_epi32(
        _mm256_set1_epi32(base),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
inline VecI32 vAddI32(VecI32 a, VecI32 b)
{
    return _mm256_add_epi32(a, b);
}
inline VecI32 vSubI32(VecI32 a, VecI32 b)
{
    return _mm256_sub_epi32(a, b);
}
inline VecI32 vMinI32(VecI32 a, VecI32 b)
{
    return _mm256_min_epi32(a, b);
}
inline VecI32 vMaxI32(VecI32 a, VecI32 b)
{
    return _mm256_max_epi32(a, b);
}
inline VecI32 vAbsI32(VecI32 a) { return _mm256_abs_epi32(a); }
inline VecI32 vCmpGtI32(VecI32 a, VecI32 b)
{
    return _mm256_cmpgt_epi32(a, b);
}
inline VecI32 vCmpEqI32(VecI32 a, VecI32 b)
{
    return _mm256_cmpeq_epi32(a, b);
}
inline VecI32 vAndI32(VecI32 a, VecI32 b)
{
    return _mm256_and_si256(a, b);
}
inline VecI32 vOrI32(VecI32 a, VecI32 b)
{
    return _mm256_or_si256(a, b);
}
/** ~a & b. */
inline VecI32 vAndNotI32(VecI32 a, VecI32 b)
{
    return _mm256_andnot_si256(a, b);
}
/** Per-lane select: mask lanes all-ones -> a, zero -> b. */
inline VecI32 vSelectI32(VecI32 mask, VecI32 a, VecI32 b)
{
    return _mm256_blendv_epi8(b, a, mask);
}
template <int kShift>
inline VecI32 vSrliI32(VecI32 a)
{
    return _mm256_srli_epi32(a, kShift);
}
/** Round-to-nearest int -> float conversion (cvtdq2ps). */
inline VecF32 vToF32(VecI32 a) { return _mm256_cvtepi32_ps(a); }
/** Truncating float -> int conversion (cvttps2dq). */
inline VecI32 vTruncToI32(VecF32 a) { return _mm256_cvttps_epi32(a); }
/** Raw IEEE-754 bit pattern of each float lane. */
inline VecI32 vF32Bits(VecF32 a) { return _mm256_castps_si256(a); }
/** Float lanes with the given bit patterns (inverse of vF32Bits). */
inline VecF32 vF32FromBits(VecI32 a) { return _mm256_castsi256_ps(a); }
/** Narrow each 32-bit lane (0..255) to a byte; store kI32Lanes bytes. */
inline void vStoreBytesI32(u8* p, VecI32 v)
{
    const __m256i lows = _mm256_shuffle_epi8(
        v, _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1,
                            -1, -1, -1, -1, 0, 4, 8, 12, -1, -1, -1, -1,
                            -1, -1, -1, -1, -1, -1, -1, -1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p),
                     _mm_unpacklo_epi32(_mm256_castsi256_si128(lows),
                                        _mm256_extracti128_si256(lows, 1)));
}
/** All-ones 32-bit lanes where bytes a[l] == b[l], l < kI32Lanes. */
inline VecI32 vByteEqI32(const u8* a, const u8* b)
{
    return _mm256_cvtepi8_epi32(_mm_cmpeq_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a)),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b))));
}
/** Horizontal maximum of the 32-bit lanes. */
inline i32 vHMaxI32(VecI32 v)
{
    const __m128i half = _mm_max_epi32(
        _mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    const __m128i quad =
        _mm_max_epi32(half, _mm_shuffle_epi32(half, 0x4e));
    const __m128i pair =
        _mm_max_epi32(quad, _mm_shuffle_epi32(quad, 0xb1));
    return _mm_cvtsi128_si32(pair);
}

// ---- 16-bit integer lanes -------------------------------------------
inline VecI16 vSet1I16(i16 x) { return _mm256_set1_epi16(x); }
inline VecI16 vLoadI16(const i16* p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void vStoreI16(i16* p, VecI16 v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
/** All-ones 16-bit lanes where bytes a[l] == b[l], l < kI16Lanes. */
inline VecI16 vByteEqI16(const u8* a, const u8* b)
{
    return _mm256_cvtepi8_epi16(_mm_cmpeq_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b))));
}
inline VecI16 vAddsI16(VecI16 a, VecI16 b)
{
    return _mm256_adds_epi16(a, b);
}
inline VecI16 vSubsI16(VecI16 a, VecI16 b)
{
    return _mm256_subs_epi16(a, b);
}
inline VecI16 vMaxI16(VecI16 a, VecI16 b)
{
    return _mm256_max_epi16(a, b);
}
inline VecI16 vCmpGtI16(VecI16 a, VecI16 b)
{
    return _mm256_cmpgt_epi16(a, b);
}
/** Per-lane select: mask lanes all-ones -> a, zero -> b. */
inline VecI16 vSelectI16(VecI16 mask, VecI16 a, VecI16 b)
{
    return _mm256_blendv_epi8(b, a, mask);
}

// ---- float lanes ----------------------------------------------------
inline VecF32 vSet1F32(float x) { return _mm256_set1_ps(x); }
inline VecF32 vLoadF32(const float* p) { return _mm256_loadu_ps(p); }
inline void vStoreF32(float* p, VecF32 v) { _mm256_storeu_ps(p, v); }
inline VecF32 vAddF32(VecF32 a, VecF32 b)
{
    return _mm256_add_ps(a, b);
}
inline VecF32 vSubF32(VecF32 a, VecF32 b)
{
    return _mm256_sub_ps(a, b);
}
inline VecF32 vMulF32(VecF32 a, VecF32 b)
{
    return _mm256_mul_ps(a, b);
}
inline VecF32 vDivF32(VecF32 a, VecF32 b)
{
    return _mm256_div_ps(a, b);
}
/** All-ones lanes where a > b (ordered: false if either is NaN). */
inline VecF32 vCmpGtF32(VecF32 a, VecF32 b)
{
    return _mm256_cmp_ps(a, b, _CMP_GT_OQ);
}
inline VecF32 vSelectF32(VecF32 mask, VecF32 a, VecF32 b)
{
    return _mm256_blendv_ps(b, a, mask);
}
/** Per-f32-lane all-ones mask where bytes a[i] == b[i] && a[i] < 4. */
inline VecF32 vByteMatchMaskF32(const u8* a, const u8* b)
{
    const __m256i av = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a)));
    const __m256i bv = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b)));
    const __m256i eq = _mm256_cmpeq_epi32(av, bv);
    const __m256i lt =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(4), av);
    return _mm256_castsi256_ps(_mm256_and_si256(eq, lt));
}

// ---- double lanes ---------------------------------------------------
inline VecF64 vSet1F64(double x) { return _mm256_set1_pd(x); }
inline VecF64 vLoadF64(const double* p) { return _mm256_loadu_pd(p); }
inline void vStoreF64(double* p, VecF64 v) { _mm256_storeu_pd(p, v); }
inline VecF64 vAddF64(VecF64 a, VecF64 b)
{
    return _mm256_add_pd(a, b);
}
inline VecF64 vMulF64(VecF64 a, VecF64 b)
{
    return _mm256_mul_pd(a, b);
}
inline VecF64 vSelectF64(VecF64 mask, VecF64 a, VecF64 b)
{
    return _mm256_blendv_pd(b, a, mask);
}
/** Per-f64-lane all-ones mask where bytes a[i] == b[i] && a[i] < 4. */
inline VecF64 vByteMatchMaskF64(const u8* a, const u8* b)
{
    u32 aw = 0;
    u32 bw = 0;
    __builtin_memcpy(&aw, a, 4);
    __builtin_memcpy(&bw, b, 4);
    const __m256i av =
        _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(aw)));
    const __m256i bv =
        _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(bw)));
    const __m256i eq = _mm256_cmpeq_epi64(av, bv);
    const __m256i lt =
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(4), av);
    return _mm256_castsi256_pd(_mm256_and_si256(eq, lt));
}

#elif defined(GB_SIMD_TARGET_SSE4)

inline constexpr u32 kI16Lanes = 8;
inline constexpr u32 kI32Lanes = 4;
inline constexpr u32 kF32Lanes = 4;
inline constexpr u32 kF64Lanes = 2;

using VecI16 = __m128i;
using VecI32 = __m128i;
using VecF32 = __m128;
using VecF64 = __m128d;

// ---- 32-bit integer lanes -------------------------------------------
inline VecI32 vSet1I32(i32 x) { return _mm_set1_epi32(x); }
inline VecI32 vLoadI32(const i32* p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void vStoreI32(i32* p, VecI32 v)
{
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
inline VecI32 vLoadBytesI32(const u8* p)
{
    u32 w = 0;
    __builtin_memcpy(&w, p, 4);
    return _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(w)));
}
inline VecI32 vIotaI32(i32 base)
{
    return _mm_add_epi32(_mm_set1_epi32(base),
                         _mm_setr_epi32(0, 1, 2, 3));
}
inline VecI32 vAddI32(VecI32 a, VecI32 b) { return _mm_add_epi32(a, b); }
inline VecI32 vSubI32(VecI32 a, VecI32 b) { return _mm_sub_epi32(a, b); }
inline VecI32 vMinI32(VecI32 a, VecI32 b) { return _mm_min_epi32(a, b); }
inline VecI32 vMaxI32(VecI32 a, VecI32 b) { return _mm_max_epi32(a, b); }
inline VecI32 vAbsI32(VecI32 a) { return _mm_abs_epi32(a); }
inline VecI32 vCmpGtI32(VecI32 a, VecI32 b)
{
    return _mm_cmpgt_epi32(a, b);
}
inline VecI32 vCmpEqI32(VecI32 a, VecI32 b)
{
    return _mm_cmpeq_epi32(a, b);
}
inline VecI32 vAndI32(VecI32 a, VecI32 b)
{
    return _mm_and_si128(a, b);
}
inline VecI32 vOrI32(VecI32 a, VecI32 b) { return _mm_or_si128(a, b); }
inline VecI32 vAndNotI32(VecI32 a, VecI32 b)
{
    return _mm_andnot_si128(a, b);
}
inline VecI32 vSelectI32(VecI32 mask, VecI32 a, VecI32 b)
{
    return _mm_blendv_epi8(b, a, mask);
}
template <int kShift>
inline VecI32 vSrliI32(VecI32 a)
{
    return _mm_srli_epi32(a, kShift);
}
inline VecF32 vToF32(VecI32 a) { return _mm_cvtepi32_ps(a); }
inline VecI32 vTruncToI32(VecF32 a) { return _mm_cvttps_epi32(a); }
inline VecI32 vF32Bits(VecF32 a) { return _mm_castps_si128(a); }
inline VecF32 vF32FromBits(VecI32 a) { return _mm_castsi128_ps(a); }
inline void vStoreBytesI32(u8* p, VecI32 v)
{
    const __m128i lows = _mm_shuffle_epi8(
        v, _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                         -1, -1, -1));
    const u32 w = static_cast<u32>(_mm_cvtsi128_si32(lows));
    __builtin_memcpy(p, &w, 4);
}
inline VecI32 vByteEqI32(const u8* a, const u8* b)
{
    u32 aw = 0;
    u32 bw = 0;
    __builtin_memcpy(&aw, a, 4);
    __builtin_memcpy(&bw, b, 4);
    return _mm_cvtepi8_epi32(
        _mm_cmpeq_epi8(_mm_cvtsi32_si128(static_cast<int>(aw)),
                       _mm_cvtsi32_si128(static_cast<int>(bw))));
}
inline i32 vHMaxI32(VecI32 v)
{
    const __m128i quad =
        _mm_max_epi32(v, _mm_shuffle_epi32(v, 0x4e));
    const __m128i pair =
        _mm_max_epi32(quad, _mm_shuffle_epi32(quad, 0xb1));
    return _mm_cvtsi128_si32(pair);
}

// ---- 16-bit integer lanes -------------------------------------------
inline VecI16 vSet1I16(i16 x) { return _mm_set1_epi16(x); }
inline VecI16 vLoadI16(const i16* p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void vStoreI16(i16* p, VecI16 v)
{
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
inline VecI16 vByteEqI16(const u8* a, const u8* b)
{
    return _mm_cvtepi8_epi16(_mm_cmpeq_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a)),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b))));
}
inline VecI16 vAddsI16(VecI16 a, VecI16 b)
{
    return _mm_adds_epi16(a, b);
}
inline VecI16 vSubsI16(VecI16 a, VecI16 b)
{
    return _mm_subs_epi16(a, b);
}
inline VecI16 vMaxI16(VecI16 a, VecI16 b)
{
    return _mm_max_epi16(a, b);
}
inline VecI16 vCmpGtI16(VecI16 a, VecI16 b)
{
    return _mm_cmpgt_epi16(a, b);
}
inline VecI16 vSelectI16(VecI16 mask, VecI16 a, VecI16 b)
{
    return _mm_blendv_epi8(b, a, mask);
}

// ---- float lanes ----------------------------------------------------
inline VecF32 vSet1F32(float x) { return _mm_set1_ps(x); }
inline VecF32 vLoadF32(const float* p) { return _mm_loadu_ps(p); }
inline void vStoreF32(float* p, VecF32 v) { _mm_storeu_ps(p, v); }
inline VecF32 vAddF32(VecF32 a, VecF32 b) { return _mm_add_ps(a, b); }
inline VecF32 vSubF32(VecF32 a, VecF32 b) { return _mm_sub_ps(a, b); }
inline VecF32 vMulF32(VecF32 a, VecF32 b) { return _mm_mul_ps(a, b); }
inline VecF32 vDivF32(VecF32 a, VecF32 b) { return _mm_div_ps(a, b); }
inline VecF32 vCmpGtF32(VecF32 a, VecF32 b) { return _mm_cmpgt_ps(a, b); }
inline VecF32 vSelectF32(VecF32 mask, VecF32 a, VecF32 b)
{
    return _mm_blendv_ps(b, a, mask);
}
inline VecF32 vByteMatchMaskF32(const u8* a, const u8* b)
{
    u32 aw = 0;
    u32 bw = 0;
    __builtin_memcpy(&aw, a, 4);
    __builtin_memcpy(&bw, b, 4);
    const __m128i av =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(aw)));
    const __m128i bv =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(bw)));
    const __m128i eq = _mm_cmpeq_epi32(av, bv);
    const __m128i lt = _mm_cmplt_epi32(av, _mm_set1_epi32(4));
    return _mm_castsi128_ps(_mm_and_si128(eq, lt));
}

// ---- double lanes ---------------------------------------------------
inline VecF64 vSet1F64(double x) { return _mm_set1_pd(x); }
inline VecF64 vLoadF64(const double* p) { return _mm_loadu_pd(p); }
inline void vStoreF64(double* p, VecF64 v) { _mm_storeu_pd(p, v); }
inline VecF64 vAddF64(VecF64 a, VecF64 b) { return _mm_add_pd(a, b); }
inline VecF64 vMulF64(VecF64 a, VecF64 b) { return _mm_mul_pd(a, b); }
inline VecF64 vSelectF64(VecF64 mask, VecF64 a, VecF64 b)
{
    return _mm_blendv_pd(b, a, mask);
}
inline VecF64 vByteMatchMaskF64(const u8* a, const u8* b)
{
    u16 aw = 0;
    u16 bw = 0;
    __builtin_memcpy(&aw, a, 2);
    __builtin_memcpy(&bw, b, 2);
    const __m128i av = _mm_cvtepu8_epi64(_mm_cvtsi32_si128(aw));
    const __m128i bv = _mm_cvtepu8_epi64(_mm_cvtsi32_si128(bw));
    const __m128i eq = _mm_cmpeq_epi64(av, bv);
    const __m128i lt = _mm_cmpgt_epi64(_mm_set1_epi64x(4), av);
    return _mm_castsi128_pd(_mm_and_si128(eq, lt));
}

#endif

/**
 * Shift lanes up by kS positions (lane l takes lane l - kS), filling
 * vacated low lanes from `fill`. The building block of the POA
 * insertion fixup's in-register max-plus prefix scan.
 */
template <int kS>
inline VecI32
vShiftLanesUp(VecI32 v, VecI32 fill)
{
#if defined(GB_SIMD_TARGET_AVX2)
    static_assert(kS == 1 || kS == 2 || kS == 4);
    const __m256i idx =
        kS == 1 ? _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6)
        : kS == 2 ? _mm256_setr_epi32(0, 0, 0, 1, 2, 3, 4, 5)
                  : _mm256_setr_epi32(0, 0, 0, 0, 0, 1, 2, 3);
    return _mm256_blend_epi32(_mm256_permutevar8x32_epi32(v, idx), fill,
                              (1 << kS) - 1);
#else
    static_assert(kS == 1 || kS == 2);
    // (v : fill) >> (16 - 4 kS) bytes keeps fill's top lanes low.
    return _mm_alignr_epi8(v, fill, 16 - 4 * kS);
#endif
}

} // namespace gb::simd
