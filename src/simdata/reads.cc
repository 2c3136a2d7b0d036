#include "simdata/reads.h"

#include <algorithm>
#include <cmath>

#include "io/dna.h"

namespace gb {

namespace {

char
randomBaseOther(Rng& rng, char original)
{
    const char* bases = "ACGT";
    char alt = bases[rng.below(4)];
    while (alt == original) alt = bases[rng.below(4)];
    return alt;
}

char
phredChar(double error_prob)
{
    error_prob = std::clamp(error_prob, 1e-5, 0.75);
    int q = static_cast<int>(-10.0 * std::log10(error_prob) + 0.5);
    q = std::clamp(q, 2, 41);
    return static_cast<char>('!' + q);
}

u64
shortReadCount(const std::string& genome, const ShortReadParams& p)
{
    return static_cast<u64>(p.coverage *
                            static_cast<double>(genome.size()) /
                            p.read_len);
}

void
sortByPos(std::vector<AlnRecord>& records)
{
    std::sort(records.begin(), records.end(),
              [](const AlnRecord& a, const AlnRecord& b) {
                  return a.pos < b.pos;
              });
}

} // namespace

void
simulateShortReads(const std::string& genome, const ShortReadParams& p,
                   const SimReadSink& sink)
{
    requireInput(genome.size() > p.read_len,
                 "short-read sim: genome shorter than read length");
    Rng rng(p.seed);
    const u64 num_reads = shortReadCount(genome, p);

    for (u64 r = 0; r < num_reads; ++r) {
        SimRead sr;
        sr.true_pos = rng.below(genome.size() - p.read_len + 1);
        sr.reverse = rng.chance(0.5);
        std::string fragment =
            genome.substr(sr.true_pos, p.read_len);

        std::string seq(p.read_len, 'N');
        std::string qual(p.read_len, '!');
        for (u32 i = 0; i < p.read_len; ++i) {
            // Error rate rises toward the 3' end (sequencing-cycle
            // degradation), like real Illumina data.
            const double cycle_frac =
                static_cast<double>(i) / p.read_len;
            const double err =
                p.error_rate *
                (1.0 + (p.end_degradation - 1.0) * cycle_frac);
            char base = fragment[i];
            if (rng.chance(err)) base = randomBaseOther(rng, base);
            seq[i] = base;
            // Reported quality tracks the true error rate with noise.
            const double reported =
                err * std::exp(rng.normal(0.0, 0.3));
            qual[i] = phredChar(reported);
        }
        if (sr.reverse) {
            seq = reverseComplement(seq);
            std::reverse(qual.begin(), qual.end());
        }

        sr.record.name = "sr_" + std::to_string(r);
        sr.record.seq = seq;
        sr.record.qual = qual;

        sr.truth.qname = sr.record.name;
        sr.truth.pos = sr.true_pos;
        sr.truth.reverse = sr.reverse;
        // Substitution-only errors: CIGAR is a single match run. The
        // stored seq is in reference (forward) orientation, as in SAM.
        sr.truth.seq = sr.reverse ? reverseComplement(seq) : seq;
        sr.truth.qual = sr.reverse
                            ? std::string(qual.rbegin(), qual.rend())
                            : qual;
        sr.truth.cigar.push(CigarOp::kMatch, p.read_len);
        sink(std::move(sr));
    }
}

std::vector<SimRead>
simulateShortReads(const std::string& genome, const ShortReadParams& p)
{
    std::vector<SimRead> reads;
    reads.reserve(shortReadCount(genome, p));
    simulateShortReads(genome, p, [&](SimRead&& read) {
        reads.push_back(std::move(read));
    });
    return reads;
}

void
simulateLongReads(const std::string& genome, const LongReadParams& p,
                  const SimReadSink& sink)
{
    requireInput(genome.size() > p.min_len,
                 "long-read sim: genome shorter than min read length");
    Rng rng(p.seed);
    const double mu =
        std::log(p.mean_len) - 0.5 * p.sigma_len * p.sigma_len;

    u64 bases_emitted = 0;
    const u64 target_bases = static_cast<u64>(
        p.coverage * static_cast<double>(genome.size()));
    u64 idx = 0;

    while (bases_emitted < target_bases) {
        u64 len = static_cast<u64>(rng.logNormal(mu, p.sigma_len));
        len = std::clamp<u64>(len, p.min_len, genome.size() - 1);
        const u64 start = rng.below(genome.size() - len + 1);

        SimRead sr;
        sr.true_pos = start;
        sr.reverse = rng.chance(0.5);

        // Walk the fragment emitting errors; build the CIGAR as we go.
        std::string seq;
        seq.reserve(len + len / 8);
        Cigar cigar;
        u64 g = start;
        const u64 end = start + len;
        while (g < end) {
            const double u = rng.uniform();
            if (u < p.insertion_rate) {
                const u64 ins_len = 1 + rng.geometric(0.7);
                for (u64 k = 0; k < ins_len; ++k) {
                    seq.push_back("ACGT"[rng.below(4)]);
                }
                cigar.push(CigarOp::kInsertion,
                           static_cast<u32>(ins_len));
            } else if (u < p.insertion_rate + p.deletion_rate) {
                const u64 del_len =
                    std::min<u64>(1 + rng.geometric(0.7), end - g);
                cigar.push(CigarOp::kDeletion,
                           static_cast<u32>(del_len));
                g += del_len;
            } else if (u < p.insertion_rate + p.deletion_rate +
                               p.mismatch_rate) {
                seq.push_back(randomBaseOther(rng, genome[g]));
                cigar.push(CigarOp::kMatch, 1);
                ++g;
            } else {
                seq.push_back(genome[g]);
                cigar.push(CigarOp::kMatch, 1);
                ++g;
            }
        }
        if (seq.empty()) continue;

        const double err_total =
            p.mismatch_rate + p.insertion_rate + p.deletion_rate;
        std::string qual(seq.size(), phredChar(err_total));

        sr.record.name = "lr_" + std::to_string(idx++);
        sr.record.seq =
            sr.reverse ? reverseComplement(seq) : seq;
        sr.record.qual = qual;

        sr.truth.qname = sr.record.name;
        sr.truth.pos = start;
        sr.truth.reverse = sr.reverse;
        sr.truth.seq = seq; // reference orientation
        sr.truth.qual = qual;
        sr.truth.cigar = cigar;

        bases_emitted += seq.size();
        sink(std::move(sr));
    }
}

std::vector<SimRead>
simulateLongReads(const std::string& genome, const LongReadParams& p)
{
    std::vector<SimRead> reads;
    simulateLongReads(genome, p, [&](SimRead&& read) {
        reads.push_back(std::move(read));
    });
    return reads;
}

std::vector<AlnRecord>
toAlignments(const std::vector<SimRead>& reads)
{
    std::vector<AlnRecord> out;
    out.reserve(reads.size());
    for (const auto& r : reads) out.push_back(r.truth);
    sortByPos(out);
    return out;
}

std::vector<AlnRecord>
simulateLongReadPileupRecords(const std::string& genome,
                              const LongReadParams& p)
{
    std::vector<AlnRecord> records;
    simulateLongReads(genome, p, [&](SimRead&& read) {
        AlnRecord& rec = records.emplace_back();
        rec.pos = read.truth.pos;
        rec.reverse = read.truth.reverse;
        rec.cigar = std::move(read.truth.cigar);
        rec.seq = std::move(read.truth.seq);
    });
    sortByPos(records);
    return records;
}

} // namespace gb
