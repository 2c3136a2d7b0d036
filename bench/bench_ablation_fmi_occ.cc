/**
 * @file
 * Ablation: FM-index occ-checkpoint spacing (64 / 128 / 256 / 448 BWT
 * symbols per checkpoint).
 *
 * Design-choice study behind the fmi kernel (DESIGN.md §7): a block
 * of 64·m symbols stores its 6 checkpoint counts once, m plane triples
 * and m SA-sample mark words after them and a sample count, padded to
 * whole 64-byte lines. Sparse checkpoints shrink the lines toward 4
 * bits per symbol, but every lookup popcounts more planes and touches
 * more lines. BWA-MEM2 ships the 64-symbol layout: one line per
 * lookup, 1 byte per symbol.
 *
 * Each spacing times the per-read SMEM search at the active dispatch
 * level and checks its SMEMs against the same search at
 * GB_SIMD_LEVEL=scalar and against the 64-symbol index; any mismatch
 * exits 1.
 *
 * Dataset: its own genome and reads (fmi's seeds): it rebuilds the
 * index from the genome at four spacings.
 */
#include <iostream>
#include <tuple>

#include "harness.h"
#include "index/fm_index.h"
#include "io/dna.h"
#include "simd/simd.h"
#include "simdata/genome.h"
#include "simdata/reads.h"
#include "util/timer.h"

namespace {

using namespace gb;

/** Every read's SMEMs, in order, as comparable tuples. */
using SmemList = std::vector<std::tuple<u64, u64, u64, i32, i32>>;

SmemList
searchAll(const FmIndex& fm, const std::vector<std::vector<u8>>& reads)
{
    SmemList all;
    for (const auto& read : reads) {
        NullProbe probe;
        std::vector<Smem> mems;
        fm.smems(std::span<const u8>(read), 19, mems, probe);
        for (const Smem& m : mems) {
            all.emplace_back(m.k, m.l, m.s, m.begin, m.end);
        }
    }
    return all;
}

} // namespace

int
main(int argc, char** argv)
{
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
    simulateShortReads(genome.seq, rp, [&](SimRead&& read) {
        reads.push_back(encodeDna(read.record.seq));
    });

    Table table("Occ checkpoint spacing");
    table.setHeader({"spacing", "occ bytes", "bytes/symbol", "t (s)",
                     "int ops", "load bytes", "smems"});
    SmemList reference;
    for (u32 spacing : {64u, 128u, 256u, 448u}) {
        const FmIndex fm = FmIndex::build(genome.seq, spacing);

        // Modeled work (level-independent).
        CharProbe cprobe;
        for (const auto& read : reads) {
            std::vector<Smem> mems;
            fm.smems(std::span<const u8>(read), 19, mems, cprobe);
        }

        simd::setSimdLevel(simd::SimdLevel::kScalar);
        const SmemList scalar = searchAll(fm, reads);
        simd::resetSimdLevel();
        WallTimer timer;
        const SmemList active = searchAll(fm, reads);
        const double seconds = timer.seconds();
        if (reference.empty()) reference = scalar;
        if (active != scalar || scalar != reference) {
            std::cerr << "SMEM mismatch at spacing " << spacing
                      << (active != scalar ? " (level "
                                           : " (vs spacing 64, level ")
                      << simd::simdLevelName(simd::activeSimdLevel())
                      << ")\n";
            return 1;
        }

        table.newRow()
            .cell(spacing)
            .cell(formatCount(fm.occBytes()))
            .cellF(static_cast<double>(fm.occBytes()) /
                       static_cast<double>(fm.bwtLength()),
                   3)
            .cellF(seconds, 3)
            .cell(formatCount(cprobe.counts()[OpClass::kIntAlu]))
            .cell(formatCount(cprobe.loadBytes()))
            .cell(formatCount(active.size()));
    }
    bench::report(table);
    std::cout << "\nExpected: identical SMEMs at every spacing and "
                 "level; the occ footprint falls from 1 byte per "
                 "symbol toward 1/2 while modeled int ops and load "
                 "bytes per lookup grow with the plane triples "
                 "counted.\n";
    return 0;
}
