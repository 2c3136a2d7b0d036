/**
 * @file
 * Reference-guided assembly pipeline (paper Fig. 1a), end to end:
 *
 *   simulate sample -> short reads -> FM-index seeding (fmi)
 *     -> banded-SW extension (bsw) -> alignment records
 *     -> per-region De-Bruijn re-assembly (dbg) -> haplotypes
 *     -> PairHMM read-vs-haplotype likelihoods (phmm)
 *     -> pileup + variant calls, scored against the injected truth.
 *
 * Run: ./example_reference_guided_pipeline
 */
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <span>

#include "align/banded_sw.h"
#include "io/vcf.h"
#include "dbg/debruijn.h"
#include "index/fm_index.h"
#include "io/dna.h"
#include "phmm/pairhmm.h"
#include "pileup/pileup.h"
#include "simdata/genome.h"
#include "simdata/reads.h"
#include "simdata/variants.h"
#include "util/thread_pool.h"
#include "util/timer.h"

int
main()
{
    using namespace gb;
    WallTimer total;

    // --- Sample synthesis -------------------------------------------
    GenomeParams gp;
    gp.length = 150'000;
    gp.seed = 7;
    const Genome genome = generateGenome(gp);

    VariantParams vp;
    vp.snv_rate = 1e-3;
    vp.ins_rate = 0.0; // SNVs only: keeps coordinates comparable
    vp.del_rate = 0.0;
    vp.het_fraction = 0.0;
    const SampleGenome sample = injectVariants(genome.seq, vp);
    std::cout << "genome " << genome.size() << " bp, "
              << sample.truth.size() << " injected SNVs\n";

    ShortReadParams rp;
    rp.coverage = 35.0;
    const auto sim_reads = simulateShortReads(sample.seq, rp);
    std::cout << "simulated " << sim_reads.size()
              << " short reads (35x)\n";

    // --- Read alignment: fmi seeding + bsw extension ----------------
    const FmIndex fm = FmIndex::build(genome.seq);
    ThreadPool pool;

    std::vector<AlnRecord> alignments(sim_reads.size());
    // One byte per read: std::vector<bool> packs flags into shared
    // words, and concurrent writes to neighbouring reads would race.
    std::vector<u8> aligned(sim_reads.size(), 0);
    SwParams sw;
    u64 seeded = 0;

    WallTimer align_timer;
    pool.parallelFor(sim_reads.size(), [&](u64 i) {
        const auto& read = sim_reads[i].record;
        const auto fwd = encodeDna(read.seq);
        NullProbe probe;
        std::vector<Smem> seeds;
        fm.smems(std::span<const u8>(fwd), 19, seeds, probe);
        if (seeds.empty()) return;
        // Best (longest) seed anchors the extension.
        const auto& best = *std::max_element(
            seeds.begin(), seeds.end(),
            [](const Smem& a, const Smem& b) {
                return a.length() < b.length();
            });
        const auto hits = fm.locate(best, 1);
        if (hits.empty()) return;

        // Orient the read and extend around the seed location.
        const bool rev = hits[0].reverse;
        const std::string oriented =
            rev ? reverseComplement(read.seq) : read.seq;
        const auto query = encodeDna(oriented);
        const i64 read_start_on_ref =
            static_cast<i64>(hits[0].pos) -
            (rev ? static_cast<i64>(read.seq.size()) - best.end
                 : best.begin);
        const i64 window_start =
            std::max<i64>(0, read_start_on_ref - 10);
        const u64 window_len = std::min<u64>(
            read.seq.size() + 20, genome.size() - window_start);
        const auto target = encodeDna(
            genome.seq.substr(window_start, window_len));
        const SwResult ext = bandedSw(query, target, sw);
        if (ext.score < static_cast<i32>(read.seq.size())) return;

        AlnRecord rec;
        rec.qname = read.name;
        rec.reverse = rev;
        // Approximate start: SW end positions give the offset.
        rec.pos = static_cast<u64>(window_start) +
                  static_cast<u64>(ext.target_end - ext.query_end);
        rec.seq = oriented;
        rec.cigar.push(CigarOp::kMatch,
                       static_cast<u32>(oriented.size()));
        rec.qual = rev ? std::string(read.qual.rbegin(),
                                     read.qual.rend())
                       : read.qual;
        alignments[i] = std::move(rec);
        aligned[i] = 1;
    });
    std::vector<AlnRecord> records;
    for (u64 i = 0; i < alignments.size(); ++i) {
        if (aligned[i]) records.push_back(std::move(alignments[i]));
    }
    std::sort(records.begin(), records.end(),
              [](const AlnRecord& a, const AlnRecord& b) {
                  return a.pos < b.pos;
              });
    for (u64 i = 0; i < sim_reads.size(); ++i) {
        if (aligned[i]) ++seeded;
    }
    std::cout << "aligned " << seeded << "/" << sim_reads.size()
              << " reads in " << align_timer.seconds() << " s\n";

    // --- Local re-assembly + PairHMM on one active region -----------
    const u64 region_start = 60'000;
    const u64 region_len = 400;
    AssemblyRegion region;
    region.reference = encodeDna(
        genome.seq.substr(region_start, region_len));
    for (const auto& rec : records) {
        if (rec.pos < region_start + region_len &&
            rec.endPos() > region_start) {
            region.reads.push_back(encodeDna(rec.seq));
        }
    }
    DbgStats dbg_stats;
    const auto haplotypes =
        assembleRegion(region, DbgParams{}, dbg_stats);
    std::cout << "region " << region_start << "+" << region_len
              << ": " << region.reads.size() << " reads, "
              << haplotypes.size() << " haplotypes (k="
              << dbg_stats.final_k << ", "
              << dbg_stats.hash_lookups << " hash lookups)\n";

    PhmmTask task;
    task.haplotypes = haplotypes;
    for (const auto& read : region.reads) {
        task.reads.push_back(
            {read, std::vector<u8>(read.size(), 30)});
    }
    NullProbe probe;
    const auto likelihoods = runPhmmTask(task, PhmmParams{}, probe);
    // Every dispatch level must print the same sum, digit for digit.
    double log10_sum = 0.0;
    for (const double l : likelihoods) log10_sum += l;
    char sum_text[32];
    std::snprintf(sum_text, sizeof sum_text, "%.17g", log10_sum);
    std::cout << "phmm: " << likelihoods.size()
              << " read-haplotype likelihoods ("
              << task.cellUpdates() << " DP cells), log10 sum "
              << sum_text << "\n";

    // --- Pileup + variant calling over the whole genome -------------
    const auto pileup = countPileup(records, 0, genome.size());
    const auto ref_codes = encodeDna(genome.seq);
    const auto calls = callSnvs(pileup, ref_codes, 0.3, 10);

    std::set<u64> truth;
    for (const auto& v : sample.truth) truth.insert(v.ref_pos);
    u64 tp = 0;
    for (const auto& call : calls) tp += truth.count(call.pos);
    std::cout << "variant calling: " << calls.size() << " calls, "
              << tp << "/" << truth.size()
              << " true SNVs recovered, "
              << calls.size() - tp << " false positives\n";

    // Emit the calls as VCF.
    std::vector<VcfRecord> vcf;
    for (const auto& call : calls) {
        vcf.push_back({"synthetic_contig", call.pos,
                       baseChar(call.ref_base),
                       baseChar(call.alt_base),
                       10.0 * call.alt_fraction * 10.0,
                       call.heterozygous, call.alt_fraction});
    }
    std::ofstream vcf_out("calls.vcf");
    writeVcf(vcf_out, vcf, "synthetic_contig", genome.size());
    std::cout << "wrote " << vcf.size() << " records to calls.vcf\n";
    std::cout << "pipeline total: " << total.seconds() << " s\n";

    return tp * 10 >= truth.size() * 9 ? 0 : 1; // >=90 % recall
}
