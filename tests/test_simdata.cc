/**
 * @file
 * Tests for the synthetic-data substrate: genomes, variants, reads,
 * signals. These validate the statistical shape the characterization
 * relies on (error rates, repeats, over-representation).
 */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "io/dna.h"
#include "simdata/genome.h"
#include "simdata/pore_model.h"
#include "simdata/reads.h"
#include "simdata/variants.h"
#include "util/stats.h"

namespace gb {
namespace {

TEST(Genome, LengthAndAlphabet)
{
    GenomeParams p;
    p.length = 50'000;
    const Genome g = generateGenome(p);
    EXPECT_EQ(g.seq.size(), 50'000u);
    EXPECT_EQ(g.codes.size(), 50'000u);
    for (char c : g.seq) {
        EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T');
    }
}

TEST(Genome, GcContentNearTarget)
{
    GenomeParams p;
    p.length = 200'000;
    p.gc_content = 0.41;
    const Genome g = generateGenome(p);
    u64 gc = 0;
    for (char c : g.seq) gc += c == 'G' || c == 'C';
    EXPECT_NEAR(static_cast<double>(gc) / g.seq.size(), 0.41, 0.04);
}

TEST(Genome, DeterministicPerSeed)
{
    GenomeParams p;
    p.length = 10'000;
    EXPECT_EQ(generateGenome(p).seq, generateGenome(p).seq);
    p.seed = 2;
    EXPECT_NE(generateGenome(GenomeParams{}).seq.substr(0, 1000),
              generateGenome(p).seq.substr(0, 1000));
}

TEST(Genome, RepeatsInflateDuplicateKmers)
{
    GenomeParams with;
    with.length = 100'000;
    with.repeat_fraction = 0.4;
    GenomeParams without = with;
    without.repeat_fraction = 0.0;
    without.seed = with.seed;

    auto duplicateFraction = [](const Genome& g) {
        std::map<std::string, int> counts;
        for (size_t i = 0; i + 21 <= g.seq.size(); i += 7) {
            ++counts[g.seq.substr(i, 21)];
        }
        u64 dup = 0;
        u64 total = 0;
        for (const auto& [k, c] : counts) {
            total += static_cast<u64>(c);
            if (c > 1) dup += static_cast<u64>(c);
        }
        return static_cast<double>(dup) / static_cast<double>(total);
    };
    EXPECT_GT(duplicateFraction(generateGenome(with)),
              duplicateFraction(generateGenome(without)) + 0.05);
}

TEST(Variants, TruthSetMatchesSequenceEdits)
{
    GenomeParams gp;
    gp.length = 30'000;
    const Genome g = generateGenome(gp);
    VariantParams vp;
    const SampleGenome sample = injectVariants(g.seq, vp);

    // SNVs: sample base differs from ref base at snv positions (for
    // this check indels must not shift coordinates, so re-inject with
    // SNVs only).
    VariantParams snv_only;
    snv_only.ins_rate = 0.0;
    snv_only.del_rate = 0.0;
    const SampleGenome s2 = injectVariants(g.seq, snv_only);
    EXPECT_EQ(s2.seq.size(), g.seq.size());
    u64 diffs = 0;
    for (size_t i = 0; i < g.seq.size(); ++i) {
        diffs += s2.seq[i] != g.seq[i];
    }
    EXPECT_EQ(diffs, s2.truth.size());
    for (const auto& v : s2.truth) {
        EXPECT_EQ(v.type, VariantType::kSnv);
        EXPECT_EQ(std::string(1, g.seq[v.ref_pos]), v.ref);
        EXPECT_EQ(std::string(1, s2.seq[v.ref_pos]), v.alt);
    }
    // Full params produce all three types eventually.
    EXPECT_FALSE(sample.truth.empty());
}

TEST(ShortReads, CoverageLengthAndErrors)
{
    GenomeParams gp;
    gp.length = 20'000;
    const Genome g = generateGenome(gp);
    ShortReadParams rp;
    rp.coverage = 15.0;
    const auto reads = simulateShortReads(g.seq, rp);

    u64 bases = 0;
    u64 mismatches = 0;
    for (const auto& r : reads) {
        ASSERT_EQ(r.record.seq.size(), 151u);
        ASSERT_EQ(r.record.qual.size(), 151u);
        bases += 151;
        // Compare truth-oriented seq against the genome.
        const std::string& ref_oriented = r.truth.seq;
        for (size_t i = 0; i < ref_oriented.size(); ++i) {
            mismatches += ref_oriented[i] != g.seq[r.true_pos + i];
        }
        r.truth.validate();
    }
    const double cov = static_cast<double>(bases) / g.seq.size();
    EXPECT_NEAR(cov, 15.0, 0.5);
    const double err =
        static_cast<double>(mismatches) / static_cast<double>(bases);
    EXPECT_GT(err, 0.001);
    EXPECT_LT(err, 0.01);
}

TEST(ShortReads, ReverseStrandConsistency)
{
    GenomeParams gp;
    gp.length = 5'000;
    const Genome g = generateGenome(gp);
    ShortReadParams rp;
    rp.coverage = 2.0;
    rp.error_rate = 0.0;
    const auto reads = simulateShortReads(g.seq, rp);
    for (const auto& r : reads) {
        if (!r.reverse) continue;
        // record.seq is the sequencer view; truth.seq is
        // reference-oriented.
        EXPECT_EQ(reverseComplement(r.record.seq), r.truth.seq);
        EXPECT_EQ(r.truth.seq, g.seq.substr(r.true_pos, 151));
    }
}

TEST(LongReads, LengthDistributionAndCigars)
{
    GenomeParams gp;
    gp.length = 100'000;
    const Genome g = generateGenome(gp);
    LongReadParams lp;
    lp.coverage = 5.0;
    const auto reads = simulateLongReads(g.seq, lp);

    RunningStats lengths;
    for (const auto& r : reads) {
        lengths.add(static_cast<double>(r.record.seq.size()));
        r.truth.validate();
        // CIGAR ref span must fit in the genome.
        EXPECT_LE(r.truth.endPos(), g.seq.size());
    }
    EXPECT_GT(lengths.mean(), 3'000.0);
    EXPECT_LT(lengths.mean(), 20'000.0);
    EXPECT_GE(lengths.min(), 500.0);
}

TEST(LongReads, ErrorRateInOntBand)
{
    GenomeParams gp;
    gp.length = 50'000;
    const Genome g = generateGenome(gp);
    LongReadParams lp;
    lp.coverage = 3.0;
    const auto reads = simulateLongReads(g.seq, lp);
    // Measure edit operations from the truth CIGAR + mismatches.
    u64 matches = 0;
    u64 edits = 0;
    for (const auto& r : reads) {
        u64 qpos = 0;
        u64 gpos = r.true_pos;
        for (const auto& unit : r.truth.cigar.units()) {
            switch (unit.op) {
              case CigarOp::kMatch:
                for (u32 i = 0; i < unit.len; ++i) {
                    if (r.truth.seq[qpos + i] != g.seq[gpos + i]) {
                        ++edits;
                    } else {
                        ++matches;
                    }
                }
                qpos += unit.len;
                gpos += unit.len;
                break;
              case CigarOp::kInsertion:
                edits += unit.len;
                qpos += unit.len;
                break;
              case CigarOp::kDeletion:
                edits += unit.len;
                gpos += unit.len;
                break;
              default:
                break;
            }
        }
    }
    const double err = static_cast<double>(edits) /
                       static_cast<double>(matches + edits);
    EXPECT_GT(err, 0.05);
    EXPECT_LT(err, 0.16); // the paper's 5-15 % ONT band
}

/** Every field of two simulated read sets, read by read, in order. */
void
expectSameReads(const std::vector<SimRead>& got,
                const std::vector<SimRead>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        const SimRead& a = got[i];
        const SimRead& b = want[i];
        EXPECT_EQ(a.record.name, b.record.name) << i;
        EXPECT_EQ(a.record.seq, b.record.seq) << i;
        EXPECT_EQ(a.record.qual, b.record.qual) << i;
        EXPECT_EQ(a.true_pos, b.true_pos) << i;
        EXPECT_EQ(a.reverse, b.reverse) << i;
        EXPECT_EQ(a.truth.qname, b.truth.qname) << i;
        EXPECT_EQ(a.truth.ref_id, b.truth.ref_id) << i;
        EXPECT_EQ(a.truth.pos, b.truth.pos) << i;
        EXPECT_EQ(a.truth.mapq, b.truth.mapq) << i;
        EXPECT_EQ(a.truth.reverse, b.truth.reverse) << i;
        EXPECT_EQ(a.truth.cigar, b.truth.cigar) << i;
        EXPECT_EQ(a.truth.seq, b.truth.seq) << i;
        EXPECT_EQ(a.truth.qual, b.truth.qual) << i;
    }
}

TEST(ReadSinks, SinkAndVectorFormsEmitTheSameReads)
{
    for (const u64 seed : {1u, 7u, 42u}) {
        GenomeParams gp;
        gp.length = 20'000;
        gp.seed = seed;
        const Genome g = generateGenome(gp);

        ShortReadParams rp;
        rp.coverage = 1.0;
        rp.seed = seed;
        std::vector<SimRead> streamed;
        simulateShortReads(g.seq, rp, [&](SimRead&& read) {
            streamed.push_back(std::move(read));
        });
        ASSERT_FALSE(streamed.empty());
        expectSameReads(streamed, simulateShortReads(g.seq, rp));

        // A genome just above min_len pins every long read to
        // min_len bases at one of two starts.
        LongReadParams lp;
        lp.coverage = 2.0;
        lp.seed = seed;
        for (const std::string& genome :
             {g.seq, g.seq.substr(0, lp.min_len + 1)}) {
            streamed.clear();
            simulateLongReads(genome, lp, [&](SimRead&& read) {
                streamed.push_back(std::move(read));
            });
            ASSERT_FALSE(streamed.empty());
            expectSameReads(streamed, simulateLongReads(genome, lp));
        }
    }
}

TEST(ReadSinks, PileupRecordsAreTheSortedTruthFields)
{
    GenomeParams gp;
    gp.length = 30'000;
    const Genome g = generateGenome(gp);
    LongReadParams lp;
    lp.coverage = 4.0;
    const auto want = toAlignments(simulateLongReads(g.seq, lp));
    const auto got = simulateLongReadPileupRecords(g.seq, lp);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].pos, want[i].pos) << i;
        EXPECT_EQ(got[i].reverse, want[i].reverse) << i;
        EXPECT_EQ(got[i].cigar, want[i].cigar) << i;
        EXPECT_EQ(got[i].seq, want[i].seq) << i;
        EXPECT_TRUE(got[i].qname.empty() && got[i].qual.empty()) << i;
    }
}

TEST(PoreModel, LevelsInR94Band)
{
    PoreModel model(6, 99);
    EXPECT_EQ(model.numKmers(), 4096u);
    RunningStats means;
    for (u32 r = 0; r < model.numKmers(); ++r) {
        const auto& km = model.byRank(r);
        EXPECT_GE(km.level_mean, 60.0f);
        EXPECT_LE(km.level_mean, 130.0f);
        EXPECT_GT(km.level_stdv, 0.5f);
        means.add(km.level_mean);
    }
    EXPECT_GT(means.stddev(), 10.0); // levels spread over the range
    EXPECT_EQ(model.rankOf("AAAAAA"), 0u);
    EXPECT_EQ(model.rankOf("AAAAAC"), 1u);
    EXPECT_THROW(model.rankOf("AAN"), InputError);
}

TEST(Signal, OverRepresentationMatchesPaperClaim)
{
    PoreModel model(6, 7);
    SignalParams sp;
    sp.resample_prob = 0.35;
    GenomeParams gp;
    gp.length = 2'000;
    const Genome g = generateGenome(gp);
    const auto sim = simulateSignal(model, g.seq, sp);
    const u64 n_kmers = g.seq.size() - 6 + 1;
    const double events_per_kmer =
        static_cast<double>(sim.events.size()) /
        static_cast<double>(n_kmers);
    // "k-mers are often over-represented (up to 2x)".
    EXPECT_GT(events_per_kmer, 1.2);
    EXPECT_LT(events_per_kmer, 2.0);
    // Events tile the sample stream.
    u64 covered = 0;
    for (const auto& e : sim.events) covered += e.length;
    EXPECT_EQ(covered, sim.samples.size());
}

} // namespace
} // namespace gb
