/**
 * @file
 * Pairwise Hidden Markov Model likelihood — the phmm kernel.
 *
 * Faithful to the PairHMM in GATK HaplotypeCaller (paper §III, Fig 2d):
 * the forward algorithm over match/insertion/deletion states computes
 * the likelihood of a read given a candidate haplotype, with emission
 * priors from per-base quality scores and transitions from gap-open /
 * gap-continuation penalties. Like GATK's AVX implementation the kernel
 * computes in single precision first and falls back to double precision
 * only when the float result underflows. The paper calls the fallback
 * rare; here its share depends on the reads. The phmm kernel's small
 * dataset, whose reads lie inside their regions, falls back on 12% of
 * pairs. The reference-guided pipeline's 400-bp windows keep the reads
 * that hang off their edges, and 99.1-99.8% of their pairs fall back
 * (perfbench seeds 1-3). Both passes therefore run on the vector engine
 * (src/simd/phmm_engine.h).
 *
 * The production task call, runPhmmTask(..., NullProbe&), returns the
 * float-first likelihoods bit for bit but does not always run the
 * float pass: after a pair of the task falls back it runs the double
 * pass first, and when that sum proves the float pass would underflow
 * (floatPassRuledOut) the float pass is skipped. The single-pair
 * pairHmmLogLikelihood() and the template below stay float-first.
 *
 * Scores are kept scaled by kInitialScale (no per-cell log), exactly
 * like GATK's non-log implementation.
 */
#ifndef GB_PHMM_PAIRHMM_H
#define GB_PHMM_PAIRHMM_H

#include <cmath>
#include <span>
#include <string_view>
#include <vector>

#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

#include "arch/probe.h"
#include "util/common.h"

namespace gb {

/** PairHMM parameters (GATK defaults). */
struct PhmmParams
{
    u8 gap_open_qual = 45;     ///< insertion/deletion gap-open (Q45)
    u8 gap_continue_qual = 10; ///< gap continuation (Q10)
};

/**
 * Lowest accepted gap-open quality. At Q3 gop = 0.501, so the
 * match -> match transition 1 - 2 gop is negative: no probability, and
 * the forward sums would no longer grow monotonically with their terms.
 */
inline constexpr u8 kMinGapOpenQual = 4;

/** Result of one read-vs-haplotype likelihood computation. */
struct PhmmResult
{
    double log10_likelihood = 0.0;
    bool used_double = false; ///< float path underflowed
    u64 cell_updates = 0;
};

/** Phred quality to error probability. */
inline double
qualToErrorProb(u8 qual)
{
    return std::pow(10.0, -static_cast<double>(qual) / 10.0);
}

namespace detail {

/** Rejects parameters that make a transition negative. */
inline void
checkPhmmParams(const PhmmParams& params)
{
    requireInput(params.gap_open_qual >= kMinGapOpenQual,
                 "pairHMM: gap-open quality below Q4 makes the "
                 "match->match transition negative");
}

/** Rejects one read/haplotype pair the forward pass cannot score. */
inline void
checkPhmmPair(std::span<const u8> read, std::span<const u8> quals,
              std::span<const u8> haplotype)
{
    requireInput(read.size() == quals.size(),
                 "pairHMM: read/quality length mismatch");
    requireInput(!read.empty() && !haplotype.empty(),
                 "pairHMM: empty read or haplotype");
}

/**
 * Flush-to-zero guard for the float path.
 *
 * Cells far from the alignment path decay toward denormal floats,
 * which are handled in microcode and would dominate runtime; GATK's
 * native PairHMM (GKL) sets FTZ/DAZ for exactly this reason. RAII so
 * the caller's FP environment is restored.
 */
class FlushDenormalsScope
{
  public:
#if defined(__SSE2__)
    FlushDenormalsScope() : saved_(_mm_getcsr())
    {
        _mm_setcsr(saved_ | 0x8040); // FTZ | DAZ
    }
    ~FlushDenormalsScope() { _mm_setcsr(saved_); }

  private:
    unsigned saved_;
#else
    FlushDenormalsScope() = default;
#endif
};

/** Precomputed per-row transition probabilities. */
template <typename F>
struct Transitions
{
    F mm; ///< match -> match
    F mi; ///< match -> insertion
    F md; ///< match -> deletion
    F im; ///< insertion -> match (also deletion -> match)
    F ii; ///< insertion -> insertion (also deletion -> deletion)
};

/**
 * Forward algorithm at precision F.
 *
 * @param read       Read bases (2-bit codes).
 * @param quals      Phred base qualities, same length.
 * @param haplotype  Haplotype bases (2-bit codes).
 * @return Scaled final sum (likelihood * initial scale); the caller
 *         converts to log10 or detects underflow.
 */
template <typename F, typename Probe>
F
forwardScaled(std::span<const u8> read, std::span<const u8> quals,
              std::span<const u8> haplotype, const PhmmParams& params,
              F initial_scale, u64& cell_updates, Probe& probe)
{
    const i64 m = static_cast<i64>(read.size());
    const i64 n = static_cast<i64>(haplotype.size());

    const F gop = static_cast<F>(qualToErrorProb(params.gap_open_qual));
    const F gcp =
        static_cast<F>(qualToErrorProb(params.gap_continue_qual));
    const Transitions<F> t{
        static_cast<F>(1) - (gop + gop), // mm
        gop,                             // mi
        gop,                             // md
        static_cast<F>(1) - gcp,         // im
        gcp,                             // ii
    };

    // Rolling rows over the haplotype dimension.
    std::vector<F> m_prev(n + 1, 0), m_curr(n + 1, 0);
    std::vector<F> i_prev(n + 1, 0), i_curr(n + 1, 0);
    std::vector<F> d_prev(n + 1, 0), d_curr(n + 1, 0);

    // Free start anywhere along the haplotype: D row 0 carries the
    // initial mass (GATK convention).
    const F init = initial_scale / static_cast<F>(n);
    for (i64 j = 0; j <= n; ++j) d_prev[j] = init;

    for (i64 i = 1; i <= m; ++i) {
        const u8 rb = read[i - 1];
        const F err = static_cast<F>(qualToErrorProb(quals[i - 1]));
        probe.load(&read[i - 1], 2);
        m_curr[0] = i_curr[0] = d_curr[0] = 0;
        for (i64 j = 1; j <= n; ++j) {
            const u8 hb = haplotype[j - 1];
            const bool match = rb == hb && rb < 4 && hb < 4;
            const F prior =
                match ? static_cast<F>(1) - err
                      : err / static_cast<F>(3);
            m_curr[j] = prior * (m_prev[j - 1] * t.mm +
                                 (i_prev[j - 1] + d_prev[j - 1]) * t.im);
            i_curr[j] = m_prev[j] * t.mi + i_prev[j] * t.ii;
            d_curr[j] = m_curr[j - 1] * t.md + d_curr[j - 1] * t.ii;
            ++cell_updates;
        }
        // 8-wide FP vector model: GATK's AVX kernel processes the
        // wavefront in vector registers.
        probe.op(OpClass::kVecAlu, ceilDiv<u64>(n, 8) * 6);
        probe.op(OpClass::kFpAlu, 4);
        probe.op(OpClass::kIntAlu, 3);
        probe.load(m_prev.data(), static_cast<u32>((n + 1) * sizeof(F)));
        probe.store(m_curr.data(),
                    static_cast<u32>((n + 1) * sizeof(F)));
        std::swap(m_prev, m_curr);
        std::swap(i_prev, i_curr);
        std::swap(d_prev, d_curr);
    }

    // Likelihood: read fully consumed, any end position on the
    // haplotype, ending in M or I.
    F sum = 0;
    for (i64 j = 1; j <= n; ++j) sum += m_prev[j] + i_prev[j];
    probe.op(OpClass::kFpAlu, static_cast<u64>(2 * n));
    return sum;
}

} // namespace detail

/**
 * Float-path scale: 2^100. GATK's float kernel scales by 2^120; we
 * keep 20 extra bits of overflow headroom (float max is ~2^128) for
 * the long synthetic haplotypes, at the cost of slightly earlier
 * underflow — which the double fallback already covers.
 */
inline constexpr double kFloatInitialScale = 0x1p100;
/** Double-path scale. */
inline constexpr double kDoubleInitialScale = 0x1p600;
/** Below this scaled sum the float result is considered underflowed. */
inline constexpr double kMinAcceptedFloat = 1e-28;
/** Longest pair (read + haplotype bases) floatPassRuledOut() covers. */
inline constexpr u64 kFloatSkipMaxLength = u64{1} << 20;

namespace detail {

/** True if float-first keeps the float pass's scaled sum. */
inline bool
floatAccepted(float sum_f)
{
    return sum_f > static_cast<float>(kMinAcceptedFloat) &&
           std::isfinite(sum_f);
}

/** log10 likelihood of an accepted float sum. */
inline double
floatLog10(float sum_f)
{
    return std::log10(static_cast<double>(sum_f)) -
           std::log10(kFloatInitialScale);
}

/** log10 likelihood of a double sum; -400 when it underflowed to 0. */
inline double
doubleLog10(double sum_d)
{
    return sum_d > 0 ? std::log10(sum_d) - std::log10(kDoubleInitialScale)
                     : -400.0;
}

} // namespace detail

/**
 * True when a pair's double sum proves that its float pass would not
 * be accepted, so float-first would return this same double sum: the
 * gate of the task call. `sum_d` is the forward pass at
 * kDoubleInitialScale of an m x n pair; the test is
 * sum_d * 2^-500 <= kMinAcceptedFloat / 2 with m + n <= 2^20.
 *
 * Proof sketch, with every coefficient non-negative (priors always,
 * transitions once gap_open_qual >= kMinGapOpenQual):
 *  - the float pass sums the same non-negative path products as the
 *    double pass, at scale 2^100 instead of 2^600, and FTZ/DAZ or
 *    underflow can only lower its cells;
 *  - float rounding raises it by at most (1 + 2^-24)^(8 (m + n) + 2):
 *    a diagonal step of a path (i + j up by 2) takes at most 4
 *    roundings and two coefficients, a prior and a transition, each
 *    within 5 ulps of its exact value (the worst are 1 - err at Q1 and
 *    1 - 2 gop at Q4); a gap step (up by 1) takes 2 roundings and one
 *    coefficient within 1 ulp; the final row sum adds n + 1 roundings
 *    and the row-0 mass one. For m + n <= 2^20 that factor is below
 *    e^0.51 < 2, the margin;
 *  - the double sum is low by at most (1 + 2^-53)^(8 (m + n) + 2)
 *    and by under 2^-980 absolute from underflow (at most 5 m n <
 *    2^41 roundings, gradual or flushed by a caller's FTZ), far below
 *    the threshold of about 2^406 it is compared with.
 * So the float sum stays below 0.83 kMinAcceptedFloat, under the float
 * threshold.
 */
inline bool
floatPassRuledOut(double sum_d, u64 m, u64 n)
{
    return m + n <= kFloatSkipMaxLength &&
           sum_d * (kFloatInitialScale / kDoubleInitialScale) <=
               kMinAcceptedFloat / 2;
}

/**
 * Likelihood of `read` given `haplotype`: float first, double on
 * underflow (the GATK execution strategy). One cell at a time; the
 * test oracle and instrumented characterize() path.
 */
template <typename Probe>
PhmmResult
pairHmmLogLikelihood(std::span<const u8> read, std::span<const u8> quals,
                     std::span<const u8> haplotype,
                     const PhmmParams& params, Probe& probe)
{
    detail::checkPhmmParams(params);
    detail::checkPhmmPair(read, quals, haplotype);

    PhmmResult result;
    float sum_f;
    {
        detail::FlushDenormalsScope ftz;
        sum_f = detail::forwardScaled<float>(
            read, quals, haplotype, params,
            static_cast<float>(kFloatInitialScale),
            result.cell_updates, probe);
    }

    probe.branch(20, !detail::floatAccepted(sum_f));
    if (detail::floatAccepted(sum_f)) {
        result.log10_likelihood = detail::floatLog10(sum_f);
        return result;
    }

    // Underflow: redo in double at a larger scale.
    result.used_double = true;
    const double sum_d = detail::forwardScaled<double>(
        read, quals, haplotype, params, kDoubleInitialScale,
        result.cell_updates, probe);
    result.log10_likelihood = detail::doubleLog10(sum_d);
    return result;
}

/**
 * The same likelihood through the runtime-dispatched anti-diagonal
 * engine (AVX2 / SSE4.2 / scalar template, gb::simd::activeSimdLevel),
 * float pass and double re-run alike:
 * log10_likelihood, used_double and cell_updates are bit-identical to
 * the template above at every GB_SIMD_LEVEL. The production path for
 * uninstrumented callers; defined in gb::simd
 * (src/simd/phmm_engine.cc), so callers link gb::simd (or gb::all).
 */
PhmmResult pairHmmLogLikelihood(std::span<const u8> read,
                                std::span<const u8> quals,
                                std::span<const u8> haplotype,
                                const PhmmParams& params = {});

/** One read ready for likelihood computation. */
struct PhmmRead
{
    std::vector<u8> bases; ///< 2-bit codes
    std::vector<u8> quals; ///< raw phred values
};

/** One region task: all reads x all candidate haplotypes. */
struct PhmmTask
{
    std::vector<PhmmRead> reads;
    std::vector<std::vector<u8>> haplotypes;

    /** Total DP cells this task requires (paper Fig. 4 metric). */
    u64
    cellUpdates() const
    {
        u64 hap_bases = 0;
        for (const auto& h : haplotypes) hap_bases += h.size();
        u64 cells = 0;
        for (const auto& r : reads) cells += r.bases.size() * hap_bases;
        return cells;
    }
};

/**
 * Likelihood matrix for one task (reads x haplotypes, log10), each
 * pair through the instrumented template: the characterize() path and
 * the test oracle of the task call below.
 */
template <typename Probe>
std::vector<double>
runPhmmTask(const PhmmTask& task, const PhmmParams& params, Probe& probe)
{
    std::vector<double> out;
    out.reserve(task.reads.size() * task.haplotypes.size());
    for (const auto& read : task.reads) {
        for (const auto& hap : task.haplotypes) {
            out.push_back(pairHmmLogLikelihood(read.bases, read.quals,
                                               hap, params, probe)
                              .log10_likelihood);
        }
    }
    return out;
}

/**
 * The production task call: the template's matrix, bit for bit,
 * through the dispatched engine. Pairs run in order, reads outer.
 * After a pair whose float pass was not accepted, the next pair runs
 * the double pass first and skips the float pass when
 * floatPassRuledOut() proves it would fail; otherwise it runs the
 * float pass and returns what float-first returns (its result if
 * accepted, else the double sum already computed). Pairs longer than
 * kFloatSkipMaxLength and GB_SIMD_LEVEL=scalar run float-first.
 * Defined in gb::simd (src/simd/phmm_engine.cc).
 */
std::vector<double> runPhmmTask(const PhmmTask& task,
                                const PhmmParams& params,
                                NullProbe& probe);

} // namespace gb

#endif // GB_PHMM_PAIRHMM_H
