#include "chain/chain.h"

#include <algorithm>
#include <array>
#include <bit>

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
    if (codes.size() < p.k || codes.size() - p.k + 1 < p.w) return out;

    const u64 mask = (u64{1} << (2 * p.k)) - 1;
    // Hashes fit in 2k <= 56 bits, so an all-ones hash marks a k-mer
    // that cannot win (ambiguous base or strand-ambiguous).
    constexpr u64 kNone = ~u64{0};

    // The last w k-mers (strand-resolved hashes) in a ring buffer, and
    // the window minimum with its k-mer index. A new k-mer replaces the
    // minimum only if strictly smaller, so among equal hashes the
    // earliest wins; the window is rescanned, oldest first, only when
    // the minimum leaves it.
    std::array<Minimizer, 256> ring;
    ring.fill({kNone, 0, false});
    Minimizer best{kNone, 0, false};
    u64 best_kmer = 0;
    u32 slot = 0; // ring slot of the current k-mer

    out.reserve(2 * codes.size() / (p.w + 1) + 16);
    u64 fwd = 0;
    u64 rev = 0;
    u32 filled = 0;
    for (u64 i = 0; i < codes.size(); ++i) {
        const u8 c = codes[i];
        Minimizer cand{kNone, static_cast<u32>(i), false}; // last base
        if (c < 4) {
            fwd = ((fwd << 2) | c) & mask;
            rev = (rev >> 2) |
                  (static_cast<u64>(3 - c) << (2 * (p.k - 1)));
            // Strand-ambiguous k-mers (fwd == rev) are skipped, as in
            // minimap2.
            if (++filled >= p.k && fwd != rev) {
                cand.rev = rev < fwd;
                cand.hash = hash64(cand.rev ? rev : fwd, mask);
            }
        } else {
            filled = 0;
            fwd = rev = 0;
        }
        if (i + 1 < p.k) continue;
        const u64 kmer = i + 1 - p.k;
        ring[slot] = cand;
        if (cand.hash < best.hash) {
            best = cand;
            best_kmer = kmer;
        } else if (best.hash != kNone && best_kmer + p.w <= kmer) {
            best.hash = kNone;
            for (u32 d = 1; d <= p.w; ++d) {
                const u32 at = slot + d < p.w ? slot + d : slot + d - p.w;
                if (ring[at].hash < best.hash) {
                    best = ring[at];
                    best_kmer = kmer + d - p.w;
                }
            }
        }
        if (++slot == p.w) slot = 0;
        // Window over k-mers [kmer - w + 1, kmer] is complete.
        if (kmer + 1 < p.w || best.hash == kNone) continue;
        if (out.empty() || out.back().pos != best.pos ||
            out.back().hash != best.hash) {
            out.push_back(best);
        }
    }
    return out;
}

std::vector<Anchor>
matchAnchors(std::span<const Minimizer> target,
             std::span<const Minimizer> query, u32 span)
{
    requireInput(target.size() < (u64{1} << 31),
                 "matchAnchors: too many target minimizers");
    // Hash join: an open-addressing table (load <= 1/2, linear
    // probing) of target indices, keyed by the low bits of the already
    // mixed hash; equal hashes sit in one probe run. Each query
    // minimizer walks its run. The anchors own plain coordinates, so
    // they stay valid after the input minimizer vectors reallocate or
    // die. Each match is packed as (tpos << 32 | qpos), so one integer
    // sort + unique gives the (tpos, qpos) order the chaining DP
    // requires.
    const u64 slot_mask = (u64{2} << std::bit_width(target.size())) - 1;
    std::vector<u32> table(slot_mask + 1, 0); // target index + 1; 0 = empty
    for (u32 i = 0; i < target.size(); ++i) {
        u64 slot = target[i].hash & slot_mask;
        while (table[slot] != 0) slot = (slot + 1) & slot_mask;
        table[slot] = i + 1;
    }

    std::vector<u64> keys;
    for (const auto& q : query) {
        for (u64 slot = q.hash & slot_mask; table[slot] != 0;
             slot = (slot + 1) & slot_mask) {
            const Minimizer& t = target[table[slot] - 1];
            // Same hash, same relative strand.
            if (t.hash == q.hash && t.rev == q.rev) {
                keys.push_back(u64{t.pos} << 32 | q.pos);
            }
        }
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    std::vector<Anchor> anchors(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
        anchors[i] = {static_cast<u32>(keys[i] >> 32),
                      static_cast<u32>(keys[i]), span};
    }
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

} // namespace gb
