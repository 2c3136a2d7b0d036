/**
 * @file
 * Job descriptions for the gb::serve scheduler.
 *
 * A JobSpec is one kernel-run request: which registry kernel, at what
 * dataset size, with how many worker threads and how many timed
 * repeats. Specs arrive either programmatically
 * (Scheduler::submit) or from a job file (`genomicsbench serve
 * --jobs=FILE`), one job per line:
 *
 *   # comment / blank lines are skipped
 *   fmi size=tiny threads=2 repeats=3 priority=high
 *   bsw size=small
 *   kmer-cnt                       # defaults: tiny, 1, 1
 *
 * Validation is strict and up-front: unknown kernels, keys or sizes
 * and zero thread/repeat counts are InputErrors at parse or submit
 * time, never half-way through a run.
 */
#ifndef GB_SERVE_JOB_H
#define GB_SERVE_JOB_H

#include <string>
#include <vector>

#include "core/benchmark.h"
#include "util/common.h"

namespace gb::serve {

/**
 * Dispatch class of a job. Strict class order: a pending kHigh job
 * dispatches before any kNormal job, which dispatches before any
 * kBatch job; within one class jobs go FIFO + big-job aging
 * (scheduler.h). Starvation of the lower classes is bounded by the
 * promote-after-N-bypasses rule: a job that higher-class jobs jumped
 * `Scheduler::kPromoteLimit` times moves up one class.
 */
enum class Priority : u8
{
    kHigh = 0,
    kNormal = 1,
    kBatch = 2,
};

/** Number of priority classes (array sizing / iteration). */
inline constexpr int kPriorityClasses = 3;

/** Parse "high" | "normal" | "batch"; throws InputError. */
Priority parsePriority(const std::string& name);

/** Display name ("high", "normal", "batch"). */
const char* priorityName(Priority priority);

/** One kernel-run request. */
struct JobSpec
{
    std::string kernel;  ///< registry kernel name (e.g. "fmi")
    DatasetSize size = DatasetSize::kTiny;
    /** Nothing reads it; kept only for perfbench/, which sets it. */
    Engine engine = Engine::kScalar;
    unsigned threads = 1; ///< worker threads requested for this job
    unsigned repeats = 1; ///< timed run() repeats
    /** Dispatch class (`priority=` job-file key; default normal). */
    Priority priority = Priority::kNormal;

    /**
     * One-line display form ("fmi size=tiny priority=normal t=2
     * x3").
     */
    std::string describe() const;
};

/**
 * Validate `spec` against the set of known kernel names (normally
 * kernelNames(); tests substitute their own). Throws InputError on an
 * unknown kernel, threads == 0 or repeats == 0.
 */
void validateSpec(const JobSpec& spec,
                  const std::vector<std::string>& known_kernels);

/**
 * Parse one job line: `<kernel> [size=S] [threads=N] [repeats=R]
 * [priority=high|normal|batch]`, whitespace-separated, keys in any
 * order. Throws InputError on malformed input (unknown key, duplicate
 * key, bad value, missing kernel). Registry validation is separate
 * (validateSpec) so the parser stays usable with test registries.
 */
JobSpec parseJobLine(const std::string& line);

/** One job line of a job file and its 1-based line number. */
struct JobFileLine
{
    size_t lineno = 0;
    std::string text;
};

/**
 * The job lines of a file, unparsed: `#` comments cut, blank lines
 * dropped, surrounding blanks and `\r` (CRLF files) trimmed. Throws
 * InputError on an unreadable file or one without a job line. The
 * server's parseJobFile() and the network client share it.
 */
std::vector<JobFileLine> readJobLines(const std::string& path);

/**
 * Parse a job file: one parseJobLine() per readJobLines() line.
 * Throws InputError (with the 1-based line number) on any bad line,
 * and on an unreadable or empty job list.
 */
std::vector<JobSpec> parseJobFile(const std::string& path);

} // namespace gb::serve

#endif // GB_SERVE_JOB_H
