#include "grm/grm.h"

#include <cmath>

#include "simd/f32_engine.h"

namespace gb {

namespace {

/**
 * Per-site observed allele frequency over sites [s0, s1) (PLINK uses
 * observed, not the generating frequency) as mean 2p and scale
 * 1/sqrt(2p(1-p)). Walks the matrix by rows into per-site counters.
 */
void
siteScaling(const GenotypeMatrix& m, u32 s0, u32 s1, float* mean,
            float* scale)
{
    const u32 width = s1 - s0;
    std::vector<u64> sum(width, 0);
    std::vector<u64> called(width, 0);
    for (u32 i = 0; i < m.num_individuals; ++i) {
        const i8* row =
            &m.genotypes[static_cast<size_t>(i) * m.num_sites + s0];
        for (u32 s = 0; s < width; ++s) {
            if (row[s] == kMissingGenotype) continue;
            sum[s] += static_cast<u64>(row[s]);
            ++called[s];
        }
    }
    for (u32 s = 0; s < width; ++s) {
        const double p =
            called[s] ? static_cast<double>(sum[s]) /
                            (2.0 * static_cast<double>(called[s]))
                      : 0.0;
        const double denom = 2.0 * p * (1.0 - p);
        mean[s] = static_cast<float>(2.0 * p);
        scale[s] = denom > 1e-9
                       ? static_cast<float>(1.0 / std::sqrt(denom))
                       : 0.0f; // monomorphic site contributes nothing
    }
}

/** One entry of Z; missing -> mean imputation -> 0. */
float
standardized(i8 g, float mean, float scale)
{
    return g == kMissingGenotype
               ? 0.0f
               : (static_cast<float>(g) - mean) * scale;
}

/** Sites per parallel scaling task. */
constexpr u32 kScalingChunk = 1024;

} // namespace

std::vector<float>
standardizeGenotypes(const GenotypeMatrix& m, ThreadPool& pool)
{
    requireInput(m.num_individuals > 0 && m.num_sites > 0,
                 "GRM: empty genotype matrix");
    const u32 s = m.num_sites;
    std::vector<float> mean(s);
    std::vector<float> scale(s);
    std::vector<float> z(static_cast<size_t>(m.num_individuals) * s);
    pool.parallelFor(ceilDiv(s, kScalingChunk), [&](u64 c) {
        const u32 s0 = static_cast<u32>(c) * kScalingChunk;
        const u32 s1 = std::min(s, s0 + kScalingChunk);
        siteScaling(m, s0, s1, &mean[s0], &scale[s0]);
        for (u32 i = 0; i < m.num_individuals; ++i) {
            const i8* g = &m.genotypes[static_cast<size_t>(i) * s];
            float* zi = &z[static_cast<size_t>(i) * s];
            for (u32 site = s0; site < s1; ++site) {
                zi[site] = standardized(g[site], mean[site], scale[site]);
            }
        }
    });
    return z;
}

namespace detail {

GrmEngine::GrmEngine(const GenotypeMatrix& m, ThreadPool& pool)
    : m_(m), mean_(m.num_sites), scale_(m.num_sites)
{
    requireInput(m.num_individuals > 0 && m.num_sites > 0,
                 "GRM: empty genotype matrix");
    pool.parallelFor(ceilDiv(m.num_sites, kScalingChunk), [&](u64 c) {
        const u32 s0 = static_cast<u32>(c) * kScalingChunk;
        siteScaling(m, s0, std::min(m.num_sites, s0 + kScalingChunk),
                    &mean_[s0], &scale_[s0]);
    });
    const size_t padded = ceilDiv(m.num_individuals, kPanel) * kPanel;
    rows_.resize(padded * kGrmSiteBlock);
    panels_.resize(padded * kGrmSiteBlock);
}

void
GrmEngine::loadBlock(u32 sb, u32 block, ThreadPool& pool)
{
    block_ = block;
    const u32 n = m_.num_individuals;
    pool.parallelFor(ceilDiv(n, kPanel), [&](u64 p) {
        const u32 j0 = static_cast<u32>(p) * kPanel;
        const u32 width = std::min(kPanel, n - j0);
        float* rows = &rows_[static_cast<size_t>(j0) * kGrmSiteBlock];
        for (u32 c = 0; c < width; ++c) {
            const i8* g =
                &m_.genotypes[static_cast<size_t>(j0 + c) * m_.num_sites +
                              sb];
            float* row = rows + static_cast<size_t>(c) * kGrmSiteBlock;
            for (u32 k = 0; k < block; ++k) {
                row[k] = standardized(g[k], mean_[sb + k], scale_[sb + k]);
            }
        }
        // The panel is the rows' transpose: individuals across, sites
        // down.
        float* panel = &panels_[static_cast<size_t>(j0) * kGrmSiteBlock];
        for (u32 k = 0; k < block; ++k) {
            for (u32 c = 0; c < width; ++c) {
                panel[k * kPanel + c] =
                    rows[static_cast<size_t>(c) * kGrmSiteBlock + k];
            }
        }
    });
}

void
GrmEngine::addTile(u32 i_begin, u32 i_end, u32 j_begin, u32 j_end,
                   float* acc) const
{
    // The block's sums start from zero and are then added to the
    // running tile, as in the per-pair loop. One call per 16-column
    // panel; on a diagonal tile only rows i <= j are run, in 8-row
    // steps, so most entries below the diagonal (which the mirror
    // never reads) are skipped.
    float sums[kGrmTile * kGrmTile] = {};
    const u32 rows = i_end - i_begin;
    const u32 cols = j_end - j_begin;
    auto gemm = [&](u32 r0, u32 r1, u32 c0, u32 c1) {
        simd::F32Gemm call;
        call.rows = r1 - r0;
        call.cols = c1 - c0;
        call.depth = block_;
        call.a = &rows_[static_cast<size_t>(i_begin + r0) * kGrmSiteBlock];
        call.a_row = kGrmSiteBlock;
        call.b = &panels_[static_cast<size_t>(j_begin + c0 / kPanel * kPanel) *
                              kGrmSiteBlock +
                          c0 % kPanel];
        call.ldb = kPanel;
        call.out = sums + r0 * kGrmTile + c0;
        call.ldo = kGrmTile;
        simd::f32Gemm(call);
    };
    for (u32 c0 = 0; c0 < cols; c0 += kPanel) {
        const u32 c1 = std::min(cols, c0 + kPanel);
        if (i_begin != j_begin) {
            gemm(0, rows, c0, c1);
            continue;
        }
        gemm(0, std::min(rows, c0 + kPanel / 2), c0, c1);
        if (c0 + kPanel / 2 < c1) {
            gemm(c0 + kPanel / 2, c1, c0 + kPanel / 2, c1);
        }
    }
    for (u32 e = 0; e < kGrmTile * kGrmTile; ++e) acc[e] += sums[e];
}

} // namespace detail

GrmResult
computeGrm(const GenotypeMatrix& m, ThreadPool& pool)
{
    NullProbe probe;
    return computeGrm(m, pool, probe);
}

} // namespace gb
