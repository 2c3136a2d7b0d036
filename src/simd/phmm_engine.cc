/**
 * @file
 * Dispatch layer for the SIMD PairHMM engine and the definition of
 * the uninstrumented gb::pairHmmLogLikelihood(): prepares the
 * diagonal-friendly input layout (reversed haplotype, per-row prior
 * tables), runs the widest float kernel the CPU allows under the
 * FTZ/DAZ guard, and preserves the scalar double-precision fallback
 * on underflow.
 */
#include "simd/phmm_engine.h"

#include <cmath>
#include <vector>

#include "simd/engines_internal.h"

namespace gb::simd {

namespace {

using ForwardFn = float (*)(const detail::PhmmF32Input&);

struct Engine
{
    ForwardFn fn = nullptr; ///< null = use the scalar kernel
    u32 lanes = 1;
};

/** Function-pointer table indexed by SimdLevel. */
Engine
engineFor(SimdLevel level)
{
    switch (level) {
#if GB_SIMD_HAVE_X86
      case SimdLevel::kAvx2: return {detail::phmmForwardAvx2, 8};
      case SimdLevel::kSse4: return {detail::phmmForwardSse4, 4};
#else
      case SimdLevel::kAvx2:
      case SimdLevel::kSse4:
#endif
      case SimdLevel::kScalar: break;
    }
    return {nullptr, 1};
}

} // namespace

u32
phmmLanes(SimdLevel level)
{
    return engineFor(level).lanes;
}

} // namespace gb::simd

namespace gb {

PhmmResult
pairHmmLogLikelihood(std::span<const u8> read, std::span<const u8> quals,
                     std::span<const u8> haplotype,
                     const PhmmParams& params)
{
    const simd::Engine engine = simd::engineFor(simd::activeSimdLevel());
    if (!engine.fn) {
        NullProbe probe;
        return pairHmmLogLikelihood(read, quals, haplotype, params,
                                    probe);
    }

    requireInput(read.size() == quals.size(),
                 "pairHMM: read/quality length mismatch");
    requireInput(!read.empty() && !haplotype.empty(),
                 "pairHMM: empty read or haplotype");

    const u32 m = static_cast<u32>(read.size());
    const u32 n = static_cast<u32>(haplotype.size());
    constexpr u32 kPad = 8;

    // Same float transition values as forwardScaled<float>.
    const float gop = static_cast<float>(
        qualToErrorProb(params.gap_open_qual));
    const float gcp = static_cast<float>(
        qualToErrorProb(params.gap_continue_qual));

    std::vector<u8> rbuf(m + kPad, 0xFF);
    std::copy(read.begin(), read.end(), rbuf.begin());
    std::vector<u8> hrev(n + 2 * kPad, 0xFF);
    for (u32 j = 0; j < n; ++j) {
        hrev[kPad + n - 1 - j] = haplotype[j];
    }
    std::vector<float> prior_match(m + kPad, 0.0f);
    std::vector<float> prior_mismatch(m + kPad, 0.0f);
    for (u32 i = 0; i < m; ++i) {
        const float err =
            static_cast<float>(qualToErrorProb(quals[i]));
        prior_match[i] = 1.0f - err;
        prior_mismatch[i] = err / 3.0f;
    }

    simd::detail::PhmmF32Input in;
    in.read = rbuf.data();
    in.hap_rev = hrev.data() + kPad;
    in.prior_match = prior_match.data();
    in.prior_mismatch = prior_mismatch.data();
    in.m = m;
    in.n = n;
    in.t_mm = 1.0f - (gop + gop);
    in.t_mi = gop;
    in.t_md = gop;
    in.t_im = 1.0f - gcp;
    in.t_ii = gcp;
    in.init =
        static_cast<float>(kFloatInitialScale) / static_cast<float>(n);

    PhmmResult result;
    float sum_f;
    {
        detail::FlushDenormalsScope ftz;
        sum_f = engine.fn(in);
    }
    result.cell_updates += static_cast<u64>(m) * n;

    if (sum_f > static_cast<float>(kMinAcceptedFloat) &&
        std::isfinite(sum_f)) {
        result.log10_likelihood =
            std::log10(static_cast<double>(sum_f)) -
            std::log10(kFloatInitialScale);
        return result;
    }

    // Rare path: redo in scalar double at a larger scale, exactly as
    // the template does.
    result.used_double = true;
    NullProbe probe;
    const double sum_d = detail::forwardScaled<double>(
        read, quals, haplotype, params, kDoubleInitialScale,
        result.cell_updates, probe);
    result.log10_likelihood =
        sum_d > 0 ? std::log10(sum_d) - std::log10(kDoubleInitialScale)
                  : -400.0;
    return result;
}

} // namespace gb
