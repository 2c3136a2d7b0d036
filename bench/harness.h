/**
 * @file
 * Shared helpers for the per-table/per-figure bench binaries.
 *
 * Every binary accepts:
 *   --size=tiny|small|large   dataset preset (default per binary)
 *   --threads=N               worker threads for timed runs
 *   --kernels=a,b,c           restrict to a kernel subset
 *   --cache-dir=DIR           build-or-load prepared artifacts from a
 *                             gb::store cache (see docs/store-format.md)
 *   --json=FILE               mirror every table row into a
 *                             machine-readable gb-metrics-v1 JSON file
 *                             (see docs/metrics.md)
 *
 * Unknown flags and --kernels names are rejected with a clear error
 * (and a did-you-mean suggestion), so a typo like --thread=8 can never
 * silently run the sweep single-threaded, nor --kernels=fmii abort.
 */
#ifndef GB_BENCH_HARNESS_H
#define GB_BENCH_HARNESS_H

#include <string>
#include <vector>

#include "core/benchmark.h"
#include "metrics/metrics_sink.h"
#include "util/common.h"
#include "util/table.h"
#include "util/timer.h"

namespace gb::bench {

/** Parsed command-line options. */
struct Options
{
    DatasetSize size = DatasetSize::kSmall;
    unsigned threads = 0; ///< 0 = hardware concurrency
    std::vector<std::string> kernels; ///< empty = all
    std::string cache_dir; ///< empty = artifact caching disabled
    std::string json_path; ///< empty = JSON emission disabled
    bool help = false; ///< --help/-h was seen (parseStrict only)

    /**
     * Parse argv; on any bad option prints a clear error (with a
     * did-you-mean suggestion for near-miss flags) and exits with
     * status 2; on --help prints usage and exits 0. A --cache-dir
     * value is applied to the process-global store::ArtifactCache, so
     * every kernel prepare() after parse() transparently
     * builds-or-loads. An unknown GB_SIMD_LEVEL also exits 2.
     */
    static Options parse(int argc, char** argv,
                         DatasetSize default_size = DatasetSize::kSmall);

    /**
     * parse() minus every exit and side effect: throws InputError on
     * bad options, and reports --help/-h by setting `help` (remaining
     * arguments are not parsed) instead of printing or exiting. Used
     * by tests.
     */
    static Options parseStrict(
        int argc, char** argv,
        DatasetSize default_size = DatasetSize::kSmall);

    /** Kernel names honouring --kernels. */
    std::vector<std::string> kernelList() const;
};

/**
 * Every flag parseStrict() accepts (name only, sans value). Drives the
 * did-you-mean suggestions; tests assert it stays in sync with the
 * parser and the usage text.
 */
const std::vector<std::string>& knownFlags();

/** The --help text; lists every flag in knownFlags(). */
const char* usageText();

/**
 * Process-global metrics sink. Disabled (rows are dropped) until a
 * binary runs printHeader() with a parsed --json=FILE; the JSON file
 * is written when the process exits normally.
 */
metrics::MetricsSink& metricsSink();

/** Format a counter-derived value, "n/a" when negative (unavailable). */
std::string orNA(double value, int precision = 2);

/** Print the standard bench header (SIMD level included). */
void printHeader(const std::string& experiment,
                 const std::string& paper_ref, const Options& options);

/** Print `table` to stdout and mirror its rows into metricsSink(). */
void report(const Table& table);

} // namespace gb::bench

#endif // GB_BENCH_HARNESS_H
