/**
 * @file
 * Dispatch layer for the vectorized chaining DP: picks the widest
 * kernel the CPU (and GB_SIMD_LEVEL) allows, gates anchor sets whose
 * coordinates the 32-bit lanes cannot difference exactly to the scalar
 * chainDp(). The resulting f/parent arrays are always bit-identical
 * to the scalar fill.
 */
#include "simd/chain_engine.h"

#include <algorithm>
#include <vector>

#include "simd/engines_internal.h"

namespace gb::simd {

void
chainDpEngine(std::span<const Anchor> anchors, const ChainParams& params,
              std::span<i32> f, std::span<i32> parent)
{
    const u32 n = static_cast<u32>(anchors.size());
    requireInput(f.size() == n && parent.size() == n,
                 "chainDpEngine: f/parent must match anchors.size()");
    if (n == 0) return;

    const detail::IsaKernels* isa = detail::isaKernels(activeSimdLevel());
    const bool representable =
        isa != nullptr &&
        std::all_of(anchors.begin(), anchors.end(),
                    [](const Anchor& a) {
                        return a.tpos < kChainMaxSimdCoord &&
                               a.qpos < kChainMaxSimdCoord;
                    });
    if (!representable) {
        NullProbe probe;
        chainDp(anchors, params, f, parent, probe);
        return;
    }

    // SoA copies padded by one register so the clamped lowest chunk
    // can load full vectors; pad lanes (and f cells not yet computed)
    // are zero-initialized and masked off by the j<i predicate.
    const u32 padded = n + isa->lanes;
    std::vector<i32> tpos(padded, 0);
    std::vector<i32> qpos(padded, 0);
    std::vector<i32> f_pad(padded, 0);
    for (u32 i = 0; i < n; ++i) {
        tpos[i] = static_cast<i32>(anchors[i].tpos);
        qpos[i] = static_cast<i32>(anchors[i].qpos);
    }
    isa->chain_dp(anchors.data(), tpos.data(), qpos.data(), n, params,
                  f_pad.data(), parent.data());
    std::copy_n(f_pad.data(), n, f.data());
}

} // namespace gb::simd
