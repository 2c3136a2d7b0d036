/**
 * @file
 * Shared helpers for the per-table/per-figure bench binaries.
 *
 * Every binary parses its command line as the "bench" command of the
 * shared parser in core/cli.h, which lists the flags (--size,
 * --threads, --kernels, --cache-dir, --json, --help) and rejects an
 * unknown flag or --kernels name with a did-you-mean and exit 2, so a
 * typo like --thread=8 can never silently run the sweep
 * single-threaded. Tables go through cli::report(), which mirrors
 * their rows into the --json document (docs/metrics.md).
 */
#ifndef GB_BENCH_HARNESS_H
#define GB_BENCH_HARNESS_H

#include <string>

#include "core/cli.h"

namespace gb::bench {

/** A bench binary's options: the "bench" command of core/cli.h. */
struct Options : cli::Options
{
    /** cli::parseOrExit() for a bench binary. */
    static Options parse(int argc, char** argv,
                         DatasetSize default_size = DatasetSize::kSmall);
};

using cli::report;

/**
 * Print the standard bench header (SIMD level included) and arm the
 * --json document with this experiment's meta.
 */
void printHeader(const std::string& experiment,
                 const std::string& paper_ref, const Options& options);

} // namespace gb::bench

#endif // GB_BENCH_HARNESS_H
