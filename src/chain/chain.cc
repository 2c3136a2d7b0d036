#include "chain/chain.h"

#include <algorithm>

#include "kmer/kmer_counter.h"
#include "simd/chain_engine.h"

namespace gb {

namespace {

/** Invertible 64-bit mix (minimap2's hash64). */
u64
hash64(u64 key, u64 mask)
{
    key = (~key + (key << 21)) & mask;
    key = key ^ (key >> 24);
    key = ((key + (key << 3)) + (key << 8)) & mask;
    key = key ^ (key >> 14);
    key = ((key + (key << 2)) + (key << 4)) & mask;
    key = key ^ (key >> 28);
    key = (key + (key << 31)) & mask;
    return key;
}

} // namespace

std::vector<Minimizer>
extractMinimizers(std::span<const u8> codes, const MinimizerParams& p)
{
    requireInput(p.k >= 4 && p.k <= 28, "minimizer k must be in [4,28]");
    requireInput(p.w >= 1 && p.w <= 256, "minimizer w must be in [1,256]");
    std::vector<Minimizer> out;
    if (codes.size() < p.k) return out;

    const u64 mask = (u64{1} << (2 * p.k)) - 1;

    // Per-position hashed k-mers (strand-resolved), then window minima.
    struct Cand
    {
        u64 hash = ~u64{0};
        u32 pos = 0;
        bool rev = false;
        bool valid = false;
    };
    const u64 num_kmers = codes.size() - p.k + 1;
    std::vector<Cand> cands(num_kmers);

    u64 fwd = 0;
    u64 rev = 0;
    u32 filled = 0;
    for (u64 i = 0; i < codes.size(); ++i) {
        const u8 c = codes[i];
        if (c >= 4) {
            filled = 0;
            fwd = rev = 0;
            continue;
        }
        fwd = ((fwd << 2) | c) & mask;
        rev = (rev >> 2) |
              (static_cast<u64>(3 - c) << (2 * (p.k - 1)));
        if (++filled < p.k) continue;
        const u64 kpos = i + 1 - p.k;
        if (fwd == rev) continue; // strand-ambiguous, skip (minimap2)
        Cand& cand = cands[kpos];
        cand.rev = rev < fwd;
        cand.hash = hash64(cand.rev ? rev : fwd, mask);
        cand.pos = static_cast<u32>(i); // last base of k-mer
        cand.valid = true;
    }

    // Window minima over w consecutive k-mer starts, computed with a
    // monotonic deque in O(n) instead of rescanning each window
    // (O(n*w)). The deque holds candidate indices with increasing
    // hash front-to-back; the front is the window minimum. Pops on
    // push are strict (hash > new), so among equal hashes the
    // earliest position stays in front — the same winner the rescan's
    // first-strictly-smaller rule picks.
    if (num_kmers < p.w) return out;
    std::vector<u64> deque;
    deque.reserve(p.w + 1);
    size_t head = 0;
    for (u64 j = 0; j < num_kmers; ++j) {
        if (cands[j].valid) {
            while (deque.size() > head &&
                   cands[deque.back()].hash > cands[j].hash) {
                deque.pop_back();
            }
            if (head > 0 && deque.size() == head) {
                // Deque drained: recycle the storage.
                deque.clear();
                head = 0;
            }
            deque.push_back(j);
        }
        if (j + 1 < p.w) continue;
        const u64 win = j + 1 - p.w; // window covers starts [win, j]
        while (deque.size() > head && deque[head] < win) ++head;
        if (deque.size() == head) continue;
        const Cand& best = cands[deque[head]];
        if (out.empty() || out.back().pos != best.pos ||
            out.back().hash != best.hash) {
            out.push_back({best.hash, best.pos, best.rev});
        }
    }
    return out;
}

std::vector<Anchor>
matchAnchors(std::span<const Minimizer> target,
             std::span<const Minimizer> query, u32 span)
{
    // Sort-based hash join: one flat copy of the target minimizers
    // sorted by hash, probed with binary-search ranges per query
    // minimizer. Replaces the per-call unordered_multimap, which cost
    // one node allocation per target minimizer and stored raw
    // pointers into the caller's span; the anchors built here own all
    // their data (plain coordinates), so they stay valid after the
    // input minimizer vectors reallocate or die.
    std::vector<Minimizer> sites(target.begin(), target.end());
    std::sort(sites.begin(), sites.end(),
              [](const Minimizer& a, const Minimizer& b) {
                  return a.hash < b.hash;
              });

    std::vector<Anchor> anchors;
    for (const auto& q : query) {
        auto lo = std::lower_bound(
            sites.begin(), sites.end(), q.hash,
            [](const Minimizer& m, u64 h) { return m.hash < h; });
        for (; lo != sites.end() && lo->hash == q.hash; ++lo) {
            if (lo->rev != q.rev) continue; // same relative strand
            anchors.push_back({lo->pos, q.pos, span});
        }
    }
    std::sort(anchors.begin(), anchors.end(),
              [](const Anchor& a, const Anchor& b) {
                  return a.tpos < b.tpos ||
                         (a.tpos == b.tpos && a.qpos < b.qpos);
              });
    anchors.erase(std::unique(anchors.begin(), anchors.end()),
                  anchors.end());
    return anchors;
}

std::vector<Chain>
extractChains(std::span<const Anchor> anchors, const ChainParams& p,
              std::span<const i32> f, std::span<const i32> parent)
{
    const u32 n = static_cast<u32>(anchors.size());
    std::vector<Chain> chains;
    std::vector<u32> order(n);
    for (u32 i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](u32 a, u32 b) { return f[a] > f[b]; });
    std::vector<bool> used(n, false);

    for (u32 idx : order) {
        if (used[idx] || f[idx] < p.min_score) continue;
        Chain chain;
        chain.score = f[idx];
        i32 cur = static_cast<i32>(idx);
        bool collided = false;
        while (cur >= 0) {
            if (used[static_cast<u32>(cur)]) {
                collided = true;
                break;
            }
            chain.anchors.push_back(static_cast<u32>(cur));
            cur = parent[static_cast<u32>(cur)];
        }
        if (collided || chain.anchors.size() < p.min_anchors) continue;
        for (u32 a : chain.anchors) used[a] = true;
        std::reverse(chain.anchors.begin(), chain.anchors.end());
        chains.push_back(std::move(chain));
    }
    return chains;
}

std::vector<Chain>
chainAnchors(std::span<const Anchor> anchors, const ChainParams& params)
{
    const u32 n = static_cast<u32>(anchors.size());
    if (n == 0) return {};
    std::vector<i32> f(n);
    std::vector<i32> parent(n, -1);
    simd::chainDpEngine(anchors, params, f, parent);
    return extractChains(anchors, params, f, parent);
}

i32
overlapScore(std::span<const u8> target, std::span<const u8> query,
             const MinimizerParams& mp, const ChainParams& cp)
{
    const auto tm = extractMinimizers(target, mp);
    const auto qm = extractMinimizers(query, mp);
    const auto anchors = matchAnchors(tm, qm, mp.k);
    const auto chains = chainAnchors(anchors, cp);
    return chains.empty() ? 0 : chains.front().score;
}

} // namespace gb
