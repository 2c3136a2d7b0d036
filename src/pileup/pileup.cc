#include "pileup/pileup.h"

#include <algorithm>

#include "io/dna.h"

namespace gb {

namespace {

void
bump(u16& counter)
{
    if (counter < 0xffff) ++counter;
}

} // namespace

template <typename Probe>
Pileup
countPileup(std::span<const AlnRecord> records, u64 region_start,
            u64 region_len, Probe& probe)
{
    Pileup pileup;
    pileup.region_start = region_start;
    pileup.columns.assign(region_len, PileupColumn{});
    const u64 region_end = region_start + region_len;

    for (const auto& rec : records) {
        probe.load(&rec, 64); // record header fetch
        if (rec.endPos() <= region_start || rec.pos >= region_end) {
            probe.branch(70, true);
            continue;
        }
        ++pileup.reads_processed;

        u64 rpos = rec.pos;
        u64 qpos = 0;
        for (const auto& unit : rec.cigar.units()) {
            ++pileup.cigar_ops_walked;
            probe.load(&unit, sizeof(CigarUnit));
            probe.op(OpClass::kIntAlu, 4);
            switch (unit.op) {
              case CigarOp::kMatch:
              case CigarOp::kEqual:
              case CigarOp::kDiff:
                for (u32 i = 0; i < unit.len; ++i, ++rpos, ++qpos) {
                    if (rpos < region_start || rpos >= region_end) {
                        continue;
                    }
                    const u8 code = baseCode(rec.seq[qpos]);
                    if (code >= 4) continue;
                    PileupColumn& col =
                        pileup.columns[rpos - region_start];
                    probe.load(&rec.seq[qpos], 1);
                    bump(rec.reverse ? col.base_rev[code]
                                     : col.base_fwd[code]);
                    probe.store(&col, 2);
                    // Base decode, strand select, bounds tests and
                    // counter addressing (htslib-style per-base walk).
                    probe.op(OpClass::kIntAlu, 10);
                    probe.branch(71, rec.reverse);
                }
                break;
              case CigarOp::kInsertion:
                if (rpos > region_start && rpos <= region_end) {
                    PileupColumn& col =
                        pileup.columns[rpos - 1 - region_start];
                    bump(rec.reverse ? col.ins_rev : col.ins_fwd);
                    probe.store(&col.ins_fwd, 2);
                }
                qpos += unit.len;
                break;
              case CigarOp::kDeletion:
                for (u32 i = 0; i < unit.len; ++i, ++rpos) {
                    if (rpos < region_start || rpos >= region_end) {
                        continue;
                    }
                    PileupColumn& col =
                        pileup.columns[rpos - region_start];
                    bump(rec.reverse ? col.del_rev : col.del_fwd);
                    probe.store(&col.del_fwd, 2);
                }
                break;
              case CigarOp::kSoftClip:
                qpos += unit.len;
                break;
            }
        }
    }
    return pileup;
}

Pileup
countPileup(std::span<const AlnRecord> records, u64 region_start,
            u64 region_len)
{
    NullProbe probe;
    return countPileup(records, region_start, region_len, probe);
}

std::vector<float>
clairFeatures(const Pileup& pileup, std::span<const u8> ref_codes,
              u64 center)
{
    requireInput(ref_codes.size() == pileup.columns.size(),
                 "clair features: reference/pileup length mismatch");
    requireInput(center >= pileup.region_start &&
                     center < pileup.region_start +
                                  pileup.columns.size(),
                 "clair features: center outside region");

    std::vector<float> tensor(kClairFeatureSize, 0.0f);
    const i64 center_idx =
        static_cast<i64>(center - pileup.region_start);
    const i64 flank = (kClairWindow - 1) / 2;

    for (i64 w = 0; w < kClairWindow; ++w) {
        const i64 idx = center_idx - flank + w;
        if (idx < 0 ||
            idx >= static_cast<i64>(pileup.columns.size())) {
            continue;
        }
        const PileupColumn& col =
            pileup.columns[static_cast<size_t>(idx)];
        const float depth =
            std::max(1.0f, static_cast<float>(col.depth()));
        const u8 ref_base = ref_codes[static_cast<size_t>(idx)];

        for (u32 strand = 0; strand < 2; ++strand) {
            const auto& counts =
                strand == 0 ? col.base_fwd : col.base_rev;
            const float ins = static_cast<float>(
                strand == 0 ? col.ins_fwd : col.ins_rev);
            const float del = static_cast<float>(
                strand == 0 ? col.del_fwd : col.del_rev);
            for (u32 b = 0; b < 4; ++b) {
                const u32 channel = strand * 4 + b;
                const float raw =
                    static_cast<float>(counts[b]) / depth;
                auto slot = [&](u32 encoding) -> float& {
                    return tensor[(static_cast<u32>(w) * kClairCounts +
                                   channel) *
                                      kClairEncodings +
                                  encoding];
                };
                slot(0) = raw;
                slot(1) = ins / depth;
                slot(2) = del / depth;
                slot(3) = b == ref_base ? 0.0f : raw;
            }
        }
    }
    return tensor;
}

std::vector<SimpleCall>
callSnvs(const Pileup& pileup, std::span<const u8> ref_codes,
         double min_alt_fraction, u32 min_depth)
{
    requireInput(ref_codes.size() == pileup.columns.size(),
                 "callSnvs: reference/pileup length mismatch");
    std::vector<SimpleCall> calls;
    for (size_t i = 0; i < pileup.columns.size(); ++i) {
        const PileupColumn& col = pileup.columns[i];
        const u32 depth = col.depth();
        if (depth < min_depth) continue;
        const u8 ref_base = ref_codes[i];
        if (ref_base >= 4) continue;
        u8 best_alt = 0;
        u32 best_count = 0;
        for (u8 b = 0; b < 4; ++b) {
            if (b == ref_base) continue;
            const u32 c = col.baseCount(b);
            if (c > best_count) {
                best_count = c;
                best_alt = b;
            }
        }
        const double frac =
            static_cast<double>(best_count) / depth;
        if (frac >= min_alt_fraction) {
            calls.push_back({pileup.region_start + i, ref_base,
                             best_alt, frac < 0.75, frac});
        }
    }
    return calls;
}

// Explicit instantiations.
template Pileup countPileup<NullProbe>(std::span<const AlnRecord>, u64,
                                       u64, NullProbe&);
template Pileup countPileup<CharProbe>(std::span<const AlnRecord>, u64,
                                       u64, CharProbe&);

} // namespace gb
