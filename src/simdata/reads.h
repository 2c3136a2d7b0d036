/**
 * @file
 * Short- and long-read simulators.
 *
 * Substitutes for the paper's input datasets: Illumina-like 151 bp
 * short reads (SRR7733443-style) and ONT-like long reads with 5-15 %
 * indel-dominated error (Nanopore WGS Consortium-style). Each simulated
 * read carries its true origin, and the simulator can emit truth
 * alignment records (CIGAR built from the actual error process), which
 * feed the dbg/phmm/pileup kernels exactly like BWA-MEM/Minimap2
 * output feeds them in the paper.
 */
#ifndef GB_SIMDATA_READS_H
#define GB_SIMDATA_READS_H

#include <functional>
#include <string>
#include <vector>

#include "io/alignment.h"
#include "io/fasta.h"
#include "util/common.h"
#include "util/rng.h"

namespace gb {

/** A simulated read together with its ground truth. */
struct SimRead
{
    SeqRecord record;   ///< name/seq/qual as a sequencer would emit
    u64 true_pos;       ///< 0-based position on the source genome
    bool reverse;       ///< sequenced from the reverse strand
    AlnRecord truth;    ///< truth alignment (CIGAR from error process)
};

/** Illumina-like simulator parameters. */
struct ShortReadParams
{
    u32 read_len = 151;
    double coverage = 30.0;
    double error_rate = 0.002;     ///< mean substitution rate
    double end_degradation = 3.0;  ///< error multiplier at the 3' end
    u64 seed = 11;
};

/** ONT-like simulator parameters. */
struct LongReadParams
{
    double mean_len = 8000.0;      ///< log-normal mean length
    double sigma_len = 0.55;       ///< log-normal shape
    u32 min_len = 500;
    double coverage = 25.0;
    double mismatch_rate = 0.03;
    double insertion_rate = 0.04;
    double deletion_rate = 0.04;
    u64 seed = 13;
};

/**
 * Receives each simulated read as soon as it is made, in generation
 * order; it may move from the read. A caller that keeps one field of
 * each read holds no SimRead vector.
 */
using SimReadSink = std::function<void(SimRead&&)>;

/** Simulate short reads over `genome` to the requested coverage. */
void simulateShortReads(const std::string& genome,
                        const ShortReadParams& params,
                        const SimReadSink& sink);
std::vector<SimRead> simulateShortReads(const std::string& genome,
                                        const ShortReadParams& params);

/** Simulate long reads over `genome` to the requested coverage. */
void simulateLongReads(const std::string& genome,
                       const LongReadParams& params,
                       const SimReadSink& sink);
std::vector<SimRead> simulateLongReads(const std::string& genome,
                                       const LongReadParams& params);

/** Extract the truth alignments, sorted by position. */
std::vector<AlnRecord> toAlignments(const std::vector<SimRead>& reads);

/**
 * The truth alignments of simulateLongReads(genome, params), sorted by
 * position as toAlignments() sorts them, keeping only what a pileup
 * reads: position, strand, CIGAR and bases (no name or qualities).
 */
std::vector<AlnRecord> simulateLongReadPileupRecords(
    const std::string& genome, const LongReadParams& params);

} // namespace gb

#endif // GB_SIMDATA_READS_H
