/**
 * @file
 * Genomic Relationship Matrix — the grm kernel.
 *
 * Faithful to PLINK2's GRM computation (paper §III): for individuals i
 * and j, G_ij = (1/S) * sum_s (x_is - 2 p_s)(x_js - 2 p_s) /
 * (2 p_s (1 - p_s)). The genotype matrix is first standardized into
 * Z (missing values mean-imputed to zero contribution), then
 * G = Z Z^T / S — dense matrix multiplication, the suite's
 * regular-compute / CPU-friendly kernel (87.7 % retiring in the
 * paper's Fig. 9).
 *
 * The multiply is blocked (64x64 tiles) and parallelized over output
 * tiles, computing only the upper triangle and mirroring.
 *
 * A NullProbe call runs each tile's site block through the gb::simd
 * f32 micro-GEMM (simd/f32_engine.h): lanes across 16 individuals j,
 * read from k-major panels of Z packed per site block in parallel,
 * and registers over 4 individuals i, read from Z's rows. A recording
 * probe runs the per-pair dot products (the test oracle and the
 * characterize() path). Each entry is summed in the same order either
 * way, so the result is bit-identical at every dispatch level.
 */
#ifndef GB_GRM_GRM_H
#define GB_GRM_GRM_H

#include <algorithm>
#include <array>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/probe.h"
#include "simdata/genotypes.h"
#include "util/common.h"
#include "util/thread_pool.h"

namespace gb {

/** Dense symmetric N x N result. */
struct GrmResult
{
    u32 n = 0;
    std::vector<float> g; ///< row-major N x N

    float
    at(u32 i, u32 j) const
    {
        return g[static_cast<size_t>(i) * n + j];
    }
};

/**
 * Standardized genotype matrix Z (N x S, row-major float), built in
 * parallel over site chunks.
 */
std::vector<float> standardizeGenotypes(const GenotypeMatrix& m,
                                        ThreadPool& pool);

/** Output tile edge and site-block length of the blocked multiply. */
inline constexpr u32 kGrmTile = 64;
inline constexpr u32 kGrmSiteBlock = 2048;

namespace detail {

/**
 * The uninstrumented path's operands: per site block, Z's rows and
 * k-major panels of 16 individuals, standardized straight from the
 * genotypes (the full N x S Z is never materialized).
 */
class GrmEngine
{
  public:
    /** Per-site scaling of every site (parallel over site chunks). */
    GrmEngine(const GenotypeMatrix& m, ThreadPool& pool);

    /** Standardize sites [sb, sb + block) (parallel over panels). */
    void loadBlock(u32 sb, u32 block, ThreadPool& pool);

    /**
     * acc[i - i_begin][j - j_begin] += the loaded block's sum of
     * z_i z_j, for the tile's entries with j >= i.
     */
    void addTile(u32 i_begin, u32 i_end, u32 j_begin, u32 j_end,
                 float* acc) const;

  private:
    static constexpr u32 kPanel = 16; ///< the engine's lane block

    const GenotypeMatrix& m_;
    std::vector<float> mean_;
    std::vector<float> scale_;
    u32 block_ = 0;
    std::vector<float> rows_;   ///< [n][kGrmSiteBlock]
    std::vector<float> panels_; ///< [n / 16][kGrmSiteBlock][16]
};

} // namespace detail

/**
 * Compute the GRM.
 *
 * @param m     Genotype matrix.
 * @param pool  Thread pool; output tiles are dynamically scheduled.
 * @param probe Instrumentation probe (ops counted per FMA).
 */
template <typename Probe>
GrmResult
computeGrm(const GenotypeMatrix& m, ThreadPool& pool, Probe& probe);

/** Uninstrumented single-call convenience wrapper. */
GrmResult computeGrm(const GenotypeMatrix& m, ThreadPool& pool);

// ---------------------------------------------------------------------

template <typename Probe>
GrmResult
computeGrm(const GenotypeMatrix& m, ThreadPool& pool, Probe& probe)
{
    constexpr u32 kTile = kGrmTile;
    constexpr bool kEngine = std::is_same_v<Probe, NullProbe>;
    const u32 n = m.num_individuals;
    const u32 s = m.num_sites;
    // The per-pair loop reads the whole Z; the engine standardizes one
    // site block at a time into its own operands.
    std::vector<float> z;
    std::optional<detail::GrmEngine> engine;
    if constexpr (kEngine) {
        engine.emplace(m, pool);
    } else {
        z = standardizeGenotypes(m, pool);
    }

    GrmResult result;
    result.n = n;
    result.g.assign(static_cast<size_t>(n) * n, 0.0f);

    // Enumerate upper-triangle tile pairs.
    const u32 tiles = ceilDiv(n, kTile);
    std::vector<std::pair<u32, u32>> tile_pairs;
    for (u32 ti = 0; ti < tiles; ++ti) {
        for (u32 tj = ti; tj < tiles; ++tj) {
            tile_pairs.emplace_back(ti, tj);
        }
    }

    const float inv_s = 1.0f / static_cast<float>(s);
    // PLINK2-style blocked GEMM: the outer loop walks site blocks so
    // the N x kSiteBlock slice of Z stays LLC-resident while every
    // tile pair consumes it; per-pair 64x64 accumulators persist
    // across blocks.
    constexpr u32 kSiteBlock = kGrmSiteBlock;
    std::vector<float> accs(tile_pairs.size() * kTile * kTile, 0.0f);
    for (u32 sb = 0; sb < s; sb += kSiteBlock) {
        const u32 block = std::min(kSiteBlock, s - sb);
        if constexpr (kEngine) engine->loadBlock(sb, block, pool);
        pool.parallelFor(tile_pairs.size(), [&](u64 t) {
            const auto [ti, tj] = tile_pairs[t];
            const u32 i_begin = ti * kTile;
            const u32 j_begin0 = tj * kTile;
            const u32 i_end = std::min(n, (ti + 1) * kTile);
            const u32 j_end = std::min(n, (tj + 1) * kTile);
            float* acc = &accs[t * kTile * kTile];
            if constexpr (kEngine) {
                engine->addTile(i_begin, i_end, j_begin0, j_end, acc);
                return;
            }

            for (u32 i = i_begin; i < i_end; ++i) {
                const float* zi =
                    &z[static_cast<size_t>(i) * s + sb];
                probe.load(zi, block * 4);
                const u32 j_begin = std::max(j_begin0, i);
                for (u32 j = j_begin; j < j_end; ++j) {
                    const float* zj =
                        &z[static_cast<size_t>(j) * s + sb];
                    float sum = 0.0f;
                    for (u32 site = 0; site < block; ++site) {
                        sum += zi[site] * zj[site];
                    }
                    acc[(i - i_begin) * kTile + (j - j_begin0)] +=
                        sum;
                    probe.op(OpClass::kVecAlu, ceilDiv(block, 8u));
                    probe.op(OpClass::kIntAlu, 2);
                    probe.load(zj, block * 4);
                }
            }
        });
    }
    pool.parallelFor(tile_pairs.size(), [&](u64 t) {
        const auto [ti, tj] = tile_pairs[t];
        const u32 i_begin = ti * kTile;
        const u32 j_begin0 = tj * kTile;
        const u32 i_end = std::min(n, (ti + 1) * kTile);
        const u32 j_end = std::min(n, (tj + 1) * kTile);
        const float* acc = &accs[t * kTile * kTile];
        for (u32 i = i_begin; i < i_end; ++i) {
            const u32 j_begin = std::max(j_begin0, i);
            for (u32 j = j_begin; j < j_end; ++j) {
                const float value =
                    acc[(i - i_begin) * kTile + (j - j_begin0)] *
                    inv_s;
                result.g[static_cast<size_t>(i) * n + j] = value;
                result.g[static_cast<size_t>(j) * n + i] = value;
                probe.store(&result.g[static_cast<size_t>(i) * n + j],
                            8);
            }
        }
    });
    return result;
}

} // namespace gb

#endif // GB_GRM_GRM_H
