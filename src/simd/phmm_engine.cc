/**
 * @file
 * Dispatch layer for the SIMD PairHMM engine and the definitions of
 * the uninstrumented gb::pairHmmLogLikelihood() and
 * gb::runPhmmTask(..., NullProbe&): prepares the diagonal-friendly
 * input layout (reversed haplotype, per-row prior tables), runs the
 * widest float kernel the CPU allows under the FTZ/DAZ guard, and
 * runs the double instantiation of the same kernel, without the
 * guard, for pairs whose float pass underflows. The task call lays
 * each read and haplotype out once per task and, after a fallback,
 * runs the double pass first so floatPassRuledOut() can skip the
 * float pass.
 */
#include "simd/phmm_engine.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "simd/engines_internal.h"

namespace gb::simd {

namespace {

constexpr u32 kPad = 8;

/** Per-row priors at precision T, as forwardScaled<T> computes them. */
template <typename T>
struct Priors
{
    explicit Priors(std::span<const u8> quals)
        : match(quals.size() + kPad, T(0)),
          mismatch(quals.size() + kPad, T(0))
    {
        for (size_t i = 0; i < quals.size(); ++i) {
            const T err = static_cast<T>(qualToErrorProb(quals[i]));
            match[i] = T(1) - err;
            mismatch[i] = err / T(3);
        }
    }

    std::vector<T> match;    ///< 1 - err, zero-padded by kPad
    std::vector<T> mismatch; ///< err / 3, zero-padded by kPad
};

/** A read laid out for the kernel, with its priors at both precisions. */
struct KernelRead
{
    KernelRead(std::span<const u8> bases, std::span<const u8> quals)
        : codes(bases.size() + kPad, 0xFF), f32(quals), f64(quals)
    {
        std::copy(bases.begin(), bases.end(), codes.begin());
    }

    u32 size() const { return static_cast<u32>(codes.size() - kPad); }

    std::vector<u8> codes; ///< m codes, padded with kPad bytes of 0xFF
    Priors<float> f32;
    Priors<double> f64;
};

/** A haplotype reversed for the kernel, padded by kPad on each side. */
struct KernelHap
{
    explicit KernelHap(std::span<const u8> hap)
        : rev(hap.size() + 2 * kPad, 0xFF)
    {
        std::reverse_copy(hap.begin(), hap.end(), rev.begin() + kPad);
    }

    const u8* data() const { return rev.data() + kPad; }
    u32 size() const { return static_cast<u32>(rev.size() - 2 * kPad); }

    std::vector<u8> rev;
};

/**
 * One forward pass at precision T: transitions and the row-0 mass
 * computed exactly as forwardScaled<T> computes them.
 */
template <typename T>
T
forward(T (*fn)(const detail::PhmmInput<T>&), const KernelRead& read,
        const Priors<T>& priors, const KernelHap& hap,
        const PhmmParams& params, double initial_scale)
{
    const T gop = static_cast<T>(qualToErrorProb(params.gap_open_qual));
    const T gcp =
        static_cast<T>(qualToErrorProb(params.gap_continue_qual));

    detail::PhmmInput<T> in;
    in.read = read.codes.data();
    in.hap_rev = hap.data();
    in.prior_match = priors.match.data();
    in.prior_mismatch = priors.mismatch.data();
    in.m = read.size();
    in.n = hap.size();
    in.t_mm = T(1) - (gop + gop);
    in.t_mi = gop;
    in.t_md = gop;
    in.t_im = T(1) - gcp;
    in.t_ii = gcp;
    in.init = static_cast<T>(initial_scale) / static_cast<T>(in.n);
    std::vector<T> cells(9 * (in.m + 1 + detail::kMaxLanes), T(0));
    in.cells = cells.data();
    return fn(in);
}

/** The two passes of one read/haplotype pair. */
struct Pair
{
    const detail::IsaKernels& isa;
    const KernelRead& read;
    const KernelHap& hap;
    const PhmmParams& params;

    /** The float pass, under the FTZ/DAZ guard (as GKL runs it). */
    float
    floatSum() const
    {
        gb::detail::FlushDenormalsScope ftz;
        return forward(isa.phmm_f32, read, read.f32, hap, params,
                       kFloatInitialScale);
    }

    /**
     * The double pass, denormals kept as the template keeps them,
     * which is what makes it bit-identical.
     */
    double
    doubleSum() const
    {
        return forward(isa.phmm_f64, read, read.f64, hap, params,
                       kDoubleInitialScale);
    }
};

/**
 * One pair of a task; `fell_back` says whether the task's previous
 * pair took its double sum, and is updated for the next pair.
 */
double
taskPairLikelihood(const Pair& pair, bool& fell_back)
{
    const u64 m = pair.read.size();
    const u64 n = pair.hap.size();
    const bool double_first = fell_back && m + n <= kFloatSkipMaxLength;
    double sum_d = 0.0;
    if (double_first) {
        sum_d = pair.doubleSum();
        if (floatPassRuledOut(sum_d, m, n)) {
            return gb::detail::doubleLog10(sum_d);
        }
    }
    const float sum_f = pair.floatSum();
    fell_back = !gb::detail::floatAccepted(sum_f);
    if (!fell_back) return gb::detail::floatLog10(sum_f);
    if (!double_first) sum_d = pair.doubleSum();
    return gb::detail::doubleLog10(sum_d);
}

} // namespace

} // namespace gb::simd

namespace gb {

PhmmResult
pairHmmLogLikelihood(std::span<const u8> read, std::span<const u8> quals,
                     std::span<const u8> haplotype,
                     const PhmmParams& params)
{
    const simd::detail::IsaKernels* isa =
        simd::detail::isaKernels(simd::activeSimdLevel());
    if (isa == nullptr) {
        NullProbe probe;
        return pairHmmLogLikelihood(read, quals, haplotype, params,
                                    probe);
    }
    detail::checkPhmmParams(params);
    detail::checkPhmmPair(read, quals, haplotype);

    const simd::KernelRead kread(read, quals);
    const simd::KernelHap khap(haplotype);
    const simd::Pair pair{*isa, kread, khap, params};
    const u64 cells = static_cast<u64>(read.size()) * haplotype.size();

    PhmmResult result;
    result.cell_updates = cells;
    const float sum_f = pair.floatSum();
    if (detail::floatAccepted(sum_f)) {
        result.log10_likelihood = detail::floatLog10(sum_f);
        return result;
    }
    // Underflow: redo in double at a larger scale on the same
    // anti-diagonal engine.
    result.used_double = true;
    result.cell_updates += cells;
    result.log10_likelihood = detail::doubleLog10(pair.doubleSum());
    return result;
}

std::vector<double>
runPhmmTask(const PhmmTask& task, const PhmmParams& params,
            NullProbe& probe)
{
    detail::checkPhmmParams(params);
    const simd::detail::IsaKernels* isa =
        simd::detail::isaKernels(simd::activeSimdLevel());
    if (isa == nullptr) return runPhmmTask<NullProbe>(task, params, probe);

    std::vector<double> out;
    out.reserve(task.reads.size() * task.haplotypes.size());
    std::vector<simd::KernelHap> haps;
    haps.reserve(task.haplotypes.size());
    for (const auto& hap : task.haplotypes) haps.emplace_back(hap);
    bool fell_back = false;
    for (const PhmmRead& read : task.reads) {
        const simd::KernelRead kread(read.bases, read.quals);
        for (size_t h = 0; h < haps.size(); ++h) {
            detail::checkPhmmPair(read.bases, read.quals,
                                  task.haplotypes[h]);
            out.push_back(simd::taskPairLikelihood(
                {*isa, kread, haps[h], params}, fell_back));
        }
    }
    return out;
}

} // namespace gb
