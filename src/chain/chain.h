/**
 * @file
 * Minimizer seeding and chaining — the chain kernel.
 *
 * Faithful to Minimap2's seed-chain stage (paper §III): minimizers are
 * sampled from both sequences, shared minimizers become anchors, and a
 * 1-D dynamic program scores each anchor against up to N previous
 * anchors (default 25) to find co-linear chains:
 *
 *   score(i) = max_j { score(j) + alpha(j,i) - beta(j,i), w_i }
 *
 * where alpha is the number of new matching bases contributed by
 * anchor i relative to j and beta is a gap penalty growing with the
 * difference of the anchor distances on the two sequences.
 */
#ifndef GB_CHAIN_CHAIN_H
#define GB_CHAIN_CHAIN_H

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <vector>

#include "arch/probe.h"
#include "util/common.h"

namespace gb {

/** One sampled minimizer. */
struct Minimizer
{
    u64 hash;  ///< invertible hash of the canonical k-mer
    u32 pos;   ///< position of the k-mer's last base
    bool rev;  ///< strand whose k-mer achieved the minimum
};

/** Minimizer sampling parameters (Minimap2 ava-ont-like defaults). */
struct MinimizerParams
{
    u32 k = 15;
    u32 w = 10;
};

/**
 * Sample (w, k)-minimizers of an encoded sequence.
 * Windows containing ambiguous bases are skipped.
 */
std::vector<Minimizer> extractMinimizers(std::span<const u8> codes,
                                         const MinimizerParams& params);

/** A seed match between target and query. */
struct Anchor
{
    u32 tpos; ///< last base of the match on the target
    u32 qpos; ///< last base of the match on the query
    u32 span; ///< match length (k)

    bool operator==(const Anchor&) const = default;
};

/**
 * Anchors shared by two minimizer sets (same relative strand).
 * Result is sorted by (tpos, qpos) as the chaining DP requires.
 *
 * @param span Match span stored on each anchor (the minimizer k).
 */
std::vector<Anchor> matchAnchors(std::span<const Minimizer> target,
                                 std::span<const Minimizer> query,
                                 u32 span = 15);

/** Chaining parameters (Minimap2 defaults). */
struct ChainParams
{
    u32 pred_window = 25;   ///< N previous anchors examined
    u32 max_dist = 5000;    ///< max gap on either sequence
    u32 max_band = 500;     ///< max |dr - dq| (bandwidth)
    float gap_scale = 0.01f;
    i32 min_score = 40;
    u32 min_anchors = 3;
};

/** One chain: indices into the anchor array, highest score first. */
struct Chain
{
    i32 score = 0;
    std::vector<u32> anchors; ///< in increasing coordinate order
};

/**
 * The chaining DP fill: f[i] is the best chain score ending at anchor
 * i, parent[i] its predecessor (-1 = chain start). Both spans must
 * hold anchors.size() entries. This is the scalar reference the
 * gb::simd chain engine (simd/chain_engine.h) reproduces bit-exactly,
 * including the tie-break: among equal candidate scores the largest
 * predecessor index j wins, and a candidate must beat the anchor's
 * own span strictly to be taken at all.
 */
template <typename Probe>
void
chainDp(std::span<const Anchor> anchors, const ChainParams& p,
        std::span<i32> f, std::span<i32> parent, Probe& probe)
{
    const u32 n = static_cast<u32>(anchors.size());
    for (u32 i = 0; i < n; ++i) {
        const Anchor& ai = anchors[i];
        probe.load(&anchors[i], sizeof(Anchor));
        i32 best = static_cast<i32>(ai.span);
        i32 best_j = -1;
        const u32 j_lo = i > p.pred_window ? i - p.pred_window : 0;
        for (u32 j = i; j-- > j_lo;) {
            const Anchor& aj = anchors[j];
            probe.load(&anchors[j], sizeof(Anchor));
            const i64 dr = static_cast<i64>(ai.tpos) - aj.tpos;
            const i64 dq = static_cast<i64>(ai.qpos) - aj.qpos;
            // Distance computation, window tests and score update
            // (minimap2's inner loop; the best-score update compiles
            // to a conditional move, not a branch).
            probe.op(OpClass::kIntAlu, 14);
            probe.branch(30, dr <= 0 || dq <= 0);
            if (dr <= 0 || dq <= 0) continue;
            if (dr > p.max_dist || dq > p.max_dist) continue;
            const i64 dd = dr > dq ? dr - dq : dq - dr;
            if (dd > p.max_band) continue;

            // alpha: new matching bases (overlap-aware).
            const i64 min_d = dq < dr ? dq : dr;
            const i32 alpha = static_cast<i32>(
                min_d < ai.span ? min_d : ai.span);
            // beta: minimap2 gap cost (integer ilog2, as in mm2).
            i32 beta = 0;
            if (dd) {
                const i32 lin = static_cast<i32>(
                    p.gap_scale * static_cast<float>(ai.span) *
                    static_cast<float>(dd));
                const i32 log_part =
                    (63 - std::countl_zero(static_cast<u64>(dd))) >>
                    1;
                beta = lin + log_part;
                probe.op(OpClass::kIntAlu, 4);
            }
            const i32 cand = f[j] + alpha - beta;
            if (cand > best) {
                best = cand;
                best_j = static_cast<i32>(j);
            }
        }
        f[i] = best;
        parent[i] = best_j;
        probe.store(&f[i], 8);
    }
}

/**
 * Extract non-overlapping chains from filled DP arrays, best score
 * first; each anchor is used by at most one chain. Shared by the
 * scalar and gb::simd chaining paths.
 */
std::vector<Chain> extractChains(std::span<const Anchor> anchors,
                                 const ChainParams& p,
                                 std::span<const i32> f,
                                 std::span<const i32> parent);

/**
 * The chaining DP over sorted anchors, one candidate at a time: the
 * test oracle and instrumented characterize() path.
 *
 * @return Chains with score >= min_score and >= min_anchors anchors,
 *         best first; each anchor is used by at most one chain.
 */
template <typename Probe>
std::vector<Chain>
chainAnchors(std::span<const Anchor> anchors, const ChainParams& p,
             Probe& probe)
{
    const u32 n = static_cast<u32>(anchors.size());
    if (n == 0) return {};
    std::vector<i32> f(n);
    std::vector<i32> parent(n, -1);
    chainDp(anchors, p, std::span<i32>(f), std::span<i32>(parent),
            probe);
    return extractChains(anchors, p, f, parent);
}

/**
 * The same chains through the runtime-dispatched DP fill
 * (simd::chainDpEngine: AVX2 / SSE4.2 / scalar chainDp), bit-identical
 * to the template at every GB_SIMD_LEVEL. The production path for
 * uninstrumented callers (the chain kernel's run(), the de-novo
 * example).
 */
std::vector<Chain> chainAnchors(std::span<const Anchor> anchors,
                                const ChainParams& params = {});

} // namespace gb

#endif // GB_CHAIN_CHAIN_H
