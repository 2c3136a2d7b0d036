/**
 * @file
 * The one command-line parser of the genomicsbench CLI and the bench_*
 * binaries, and the process metrics sink they both fill.
 *
 * Every flag is named once, in cli.cc's flag table, with its value
 * check; every command lists the flags it accepts and its usage line:
 * the CLI's subcommands, and "bench" for the bench binaries. parse()
 * turns a command line into one Options record or throws InputError;
 * parseOrExit() is what the front ends call: any parse error prints
 * "error: ..." and exits 2 before anything is prepared or cached.
 *
 * Kernel names (--kernels and the kernel operand of info, run and
 * characterize) are checked against the registry at parse time, with
 * a did-you-mean for a near miss; so is HOST:PORT. A flag another
 * command takes exits 2 as "<command> does not accept <flag>", any
 * other one as "unknown option". Only the bench binaries take --help.
 */
#ifndef GB_CORE_CLI_H
#define GB_CORE_CLI_H

#include <string>
#include <vector>

#include "core/benchmark.h"
#include "metrics/metrics_sink.h"
#include "util/parse.h"
#include "util/table.h"

namespace gb::cli {

/** Which front end a command line belongs to. */
enum class FrontEnd
{
    kCli,   ///< genomicsbench: argv[1] names the command
    kBench, ///< a bench_* binary: the "bench" command, no operands
};

/** One parsed command line; each command reads the fields it takes. */
struct Options
{
    std::string command; ///< "run", "store build", ..., or "bench"
    /** The kernel name of info/run/characterize, or .gbs paths. */
    std::vector<std::string> operands;
    DatasetSize size = DatasetSize::kSmall;
    unsigned threads = 0; ///< 0 = hardware concurrency
    unsigned repeat = 3;
    std::vector<std::string> kernels; ///< empty = all
    std::string cache_dir; ///< empty = artifact caching disabled
    std::string json_path; ///< empty = JSON emission disabled
    std::string trace_path; ///< empty = no trace
    std::string jobs_path;
    HostPort listen;  ///< empty host = not given
    HostPort connect; ///< empty host = not given
    unsigned workers = 0; ///< 0 = hardware concurrency
    size_t queue_depth = 64;
    double wait_timeout = -1.0; ///< < 0 = no deadline
    bool drain = false;
    bool help = false; ///< --help/-h seen; later arguments unparsed

    /** Kernel names honouring --kernels. */
    std::vector<std::string> kernelList() const;
};

/** One command: its name, operand, accepted flags and usage. */
struct Command
{
    std::string name;
    /** "" (none), "<x>" (exactly one) or "<x>..." (any number). */
    std::string operand;
    std::vector<std::string> flags; ///< names, sans "=value"
    std::string usage;
    /** Rules across flags (e.g. one of two is required); may be null. */
    void (*check)(const Options&) = nullptr;
};

/** Every command: the CLI's, then "bench". */
const std::vector<Command>& commands();

/**
 * Parse a command line; throws InputError on any bad argument and
 * neither prints nor exits. `default_size` is the --size default.
 */
Options parse(FrontEnd front, int argc, char** argv,
              DatasetSize default_size = DatasetSize::kSmall);

/**
 * parse() for a front end's main(): a parse error or a mistyped
 * GB_SIMD_LEVEL prints "error: ..." and the usage (or, in a bench
 * binary, a pointer to --help) and exits 2; --help prints the usage
 * and exits 0. A --cache-dir is applied to the process-global
 * store::ArtifactCache, so every later prepare() builds or loads.
 */
Options parseOrExit(FrontEnd front, int argc, char** argv,
                    DatasetSize default_size = DatasetSize::kSmall);

/**
 * The process metrics sink. Rows are dropped until openMetrics() sees
 * a --json=FILE; the document is written when the process exits.
 */
metrics::MetricsSink& metricsSink();

/**
 * Arm metricsSink() for `options.json_path` with the run's meta; a
 * no-op without --json or once the sink is armed.
 */
void openMetrics(const Options& options, std::string experiment,
                 std::string paper_ref);

/** Print `table` to stdout and mirror its rows into metricsSink(). */
void report(const Table& table);

} // namespace gb::cli

#endif // GB_CORE_CLI_H
