/**
 * @file
 * Ablation: FM-index occ-checkpoint spacing (64 / 128 / 448 BWT
 * symbols per checkpoint) x occ resolution engine.
 *
 * Design-choice study behind the fmi kernel (DESIGN.md §7): denser
 * checkpoints cost memory (more of the index per lookup is counts)
 * but shorten the per-occ scan; sparse checkpoints shrink the index
 * but every backward-extension step scans more BWT bytes. BWA-MEM2
 * ships a 64-symbol layout.
 *
 * Each spacing times the per-read SMEM search twice: under scalar
 * dispatch (byte-loop occ) and at the active dispatch level (SIMD
 * popcount-over-bit-planes occ) — the wider the spacing, the more
 * bytes per lookup the SIMD counter absorbs. Results are
 * bit-identical; modeled int ops are level-independent.
 */
#include <iostream>
#include <utility>

#include "harness.h"
#include "index/fm_index.h"
#include "io/dna.h"
#include "simd/simd.h"
#include "simdata/genome.h"
#include "simdata/reads.h"
#include "util/timer.h"

int
main(int argc, char** argv)
{
    using namespace gb;
    const auto options = bench::Options::parse(argc, argv);
    bench::printHeader("Ablation: fmi occ spacing",
                       "index size vs lookup cost", options);

    const u64 genome_len =
        options.size == DatasetSize::kTiny ? 200'000 : 2'000'000;
    const u64 num_reads =
        options.size == DatasetSize::kTiny ? 500 : 5'000;

    GenomeParams gp;
    gp.length = genome_len;
    gp.seed = 101;
    const Genome genome = generateGenome(gp);
    ShortReadParams rp;
    rp.seed = 103;
    rp.coverage = static_cast<double>(num_reads) * rp.read_len /
                  static_cast<double>(genome.seq.size());
    std::vector<std::vector<u8>> reads;
    for (const auto& read : simulateShortReads(genome.seq, rp)) {
        reads.push_back(encodeDna(read.record.seq));
    }

    Table table("Occ checkpoint spacing");
    table.setHeader({"spacing", "occ bytes", "t scalar (s)",
                     "t simd (s)", "speedup", "int ops", "smems"});
    for (u32 spacing : {32u, 64u, 128u, 448u}) {
        const FmIndex fm = FmIndex::build(genome.seq, spacing);

        // Modeled work and result counts (level-independent).
        CountingProbe cprobe;
        u64 smems = 0;
        for (const auto& read : reads) {
            std::vector<Smem> mems;
            fm.smems(std::span<const u8>(read), 19, mems, cprobe);
            smems += mems.size();
        }

        // Per-read smems at the current dispatch level: SMEM count and
        // wall time.
        auto timedSmems = [&] {
            u64 found = 0;
            WallTimer timer;
            for (const auto& read : reads) {
                NullProbe probe;
                std::vector<Smem> mems;
                fm.smems(std::span<const u8>(read), 19, mems, probe);
                found += mems.size();
            }
            return std::pair{found, timer.seconds()};
        };
        simd::setSimdLevel(simd::SimdLevel::kScalar);
        const auto [smems_scalar, t_scalar] = timedSmems();
        simd::resetSimdLevel();
        const auto [smems_simd, t_simd] = timedSmems();
        if (smems_scalar != smems || smems_simd != smems) {
            std::cerr << "dispatch-level mismatch at spacing " << spacing
                      << "\n";
            return 1;
        }

        table.newRow()
            .cell(spacing)
            .cell(formatCount(fm.occBytes()))
            .cellF(t_scalar, 3)
            .cellF(t_simd, 3)
            .cellF(t_simd > 0 ? t_scalar / t_simd : 0.0, 2)
            .cell(formatCount(cprobe.counts()[OpClass::kIntAlu]))
            .cell(formatCount(smems));
    }
    bench::report(table);
    std::cout << "\nExpected: identical SMEM counts; scan work (int "
                 "ops) grows with spacing while the occ footprint "
                 "shrinks toward the raw BWT; the SIMD counter's edge "
                 "widens with spacing (more bytes per occ resolved by "
                 "SIMD).\n";
    return 0;
}
