/**
 * @file
 * Dispatch layer for the SIMD PairHMM engine and the definition of
 * the uninstrumented gb::pairHmmLogLikelihood(): prepares the
 * diagonal-friendly input layout (reversed haplotype, per-row prior
 * tables), runs the widest float kernel the CPU allows under the
 * FTZ/DAZ guard, and re-runs an underflowed pair through the double
 * instantiation of the same kernel, without the guard.
 */
#include "simd/phmm_engine.h"

#include <cmath>
#include <vector>

#include "simd/engines_internal.h"

namespace gb::simd {

namespace {

using ForwardF32 = float (*)(const detail::PhmmInput<float>&);
using ForwardF64 = double (*)(const detail::PhmmInput<double>&);

struct Engine
{
    ForwardF32 f32 = nullptr; ///< null = use the scalar kernel
    ForwardF64 f64 = nullptr;
    u32 lanes = 1; ///< float lanes
};

/** Function-pointer table indexed by SimdLevel. */
Engine
engineFor(SimdLevel level)
{
    switch (level) {
#if GB_SIMD_HAVE_X86
      case SimdLevel::kAvx2:
        return {detail::phmmForwardAvx2, detail::phmmForwardAvx2, 8};
      case SimdLevel::kSse4:
        return {detail::phmmForwardSse4, detail::phmmForwardSse4, 4};
#else
      case SimdLevel::kAvx2:
      case SimdLevel::kSse4:
#endif
      case SimdLevel::kScalar: break;
    }
    return {};
}

constexpr u32 kPad = 8;

/**
 * One forward pass at precision T over the padded read and reversed
 * haplotype: per-row priors, transitions and the row-0 mass computed
 * exactly as forwardScaled<T> computes them.
 */
template <typename T>
T
forward(T (*fn)(const detail::PhmmInput<T>&), const u8* read,
        const u8* hap_rev, std::span<const u8> quals, u32 n,
        const PhmmParams& params, double initial_scale)
{
    const u32 m = static_cast<u32>(quals.size());
    const T gop = static_cast<T>(qualToErrorProb(params.gap_open_qual));
    const T gcp =
        static_cast<T>(qualToErrorProb(params.gap_continue_qual));

    std::vector<T> prior_match(m + kPad, T(0));
    std::vector<T> prior_mismatch(m + kPad, T(0));
    for (u32 i = 0; i < m; ++i) {
        const T err = static_cast<T>(qualToErrorProb(quals[i]));
        prior_match[i] = T(1) - err;
        prior_mismatch[i] = err / T(3);
    }

    detail::PhmmInput<T> in;
    in.read = read;
    in.hap_rev = hap_rev;
    in.prior_match = prior_match.data();
    in.prior_mismatch = prior_mismatch.data();
    in.m = m;
    in.n = n;
    in.t_mm = T(1) - (gop + gop);
    in.t_mi = gop;
    in.t_md = gop;
    in.t_im = T(1) - gcp;
    in.t_ii = gcp;
    in.init = static_cast<T>(initial_scale) / static_cast<T>(n);
    return fn(in);
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
    if (!engine.f32) {
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
    using simd::kPad;

    std::vector<u8> rbuf(m + kPad, 0xFF);
    std::copy(read.begin(), read.end(), rbuf.begin());
    std::vector<u8> hrev(n + 2 * kPad, 0xFF);
    for (u32 j = 0; j < n; ++j) {
        hrev[kPad + n - 1 - j] = haplotype[j];
    }
    const u8* hap_rev = hrev.data() + kPad;

    PhmmResult result;
    float sum_f;
    {
        detail::FlushDenormalsScope ftz;
        sum_f = simd::forward(engine.f32, rbuf.data(), hap_rev, quals, n,
                              params, kFloatInitialScale);
    }
    result.cell_updates += static_cast<u64>(m) * n;

    if (sum_f > static_cast<float>(kMinAcceptedFloat) &&
        std::isfinite(sum_f)) {
        result.log10_likelihood =
            std::log10(static_cast<double>(sum_f)) -
            std::log10(kFloatInitialScale);
        return result;
    }

    // Underflow: redo in double at a larger scale on the same
    // anti-diagonal engine. Like the template's re-run it keeps
    // denormals (no FTZ/DAZ), which is what makes it bit-identical.
    result.used_double = true;
    const double sum_d =
        simd::forward(engine.f64, rbuf.data(), hap_rev, quals, n, params,
                      kDoubleInitialScale);
    result.cell_updates += static_cast<u64>(m) * n;
    result.log10_likelihood =
        sum_d > 0 ? std::log10(sum_d) - std::log10(kDoubleInitialScale)
                  : -400.0;
    return result;
}

} // namespace gb
