/**
 * @file
 * Measurement plumbing shared by the benchmark's phases: the metric
 * report, output checks, process counters that need no PMU, and the
 * benchmark's own span recorder.
 *
 * Spans are recorded only around calls into the suite's layers, from
 * the benchmark's own files. Each span stores its self time (its
 * duration minus the spans nested inside it on the same thread), so a
 * per-layer figure is a sum or median over span records.
 */
#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <map>
#include <string>
#include <vector>

#include "util/common.h"

namespace perfbench {

using gb::u64;

/** Metric name -> value and unit, printed in name order. */
class Report
{
  public:
    void set(const std::string& name, double value, const std::string& unit)
    {
        metrics_[name] = {value, unit};
    }

    /** JSON object {"name": {"value": v, "unit": u}, ...}. */
    std::string json() const;

  private:
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Metric> metrics_;
};

/** Output checks counted as failed operations against attempted ones. */
struct Checks
{
    u64 attempted = 0;
    u64 failed = 0;

    /** Count one operation; a false `ok` is a failure, logged once. */
    void expect(bool ok, const std::string& what);
};

/** Cumulative process counters from getrusage(RUSAGE_SELF). */
struct Usage
{
    double cpu_s = 0.0; ///< user + system
    u64 minflt = 0;
    u64 nvcsw = 0;  ///< voluntary context switches
    u64 nivcsw = 0; ///< involuntary context switches

    static Usage now();
};

/**
 * Peak resident set size. The kernel's high-water mark (VmHWM) can be
 * reset to the current RSS through /proc/self/clear_refs, which gives a
 * per-call peak; the process-wide peak is kept across resets here.
 */
class PeakRss
{
  public:
    /** Reset VmHWM to the current RSS (false where not permitted). */
    bool reset();

    /** VmHWM in MiB since the last reset. */
    double sinceResetMb();

    /** Highest VmHWM seen over the process, MiB. */
    double processMb();

  private:
    double process_mb_ = 0.0;
};

/** Median (0 for an empty list). */
double median(std::vector<double> values);

/** q-quantile in [0, 1] with linear interpolation (0 when empty). */
double quantile(std::vector<double> values, double q);

/** Nanoseconds on the steady clock. */
u64 nowNs();

/** Seconds since `start_ns`. */
double secondsSince(u64 start_ns);

/** Span recording for the traced run. */
namespace spans {

/** Start or stop recording; recorded spans are kept. */
void setEnabled(bool on);
bool enabled();

/** RAII span around one layer call; inert while recording is off. */
class Scope
{
  public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    const char* name_ = nullptr; ///< null: inert
    u64 begin_ns_ = 0;
};

/** One recorded span. `name` points at a string literal. */
struct Record
{
    const char* name;
    u64 begin_ns;
    u64 end_ns;
    u64 self_ns; ///< duration minus nested spans on the same thread
    unsigned thread;
    unsigned depth;
};

/**
 * Move out every span recorded so far. Recording threads must be
 * quiescent (after a parallelFor returned).
 */
std::vector<Record> take();

/** Sum of self-time seconds of each span name. */
std::map<std::string, double>
selfSecondsByName(const std::vector<Record>& records);

/** Keep `records` for writeChromeTrace(). */
void keep(std::vector<Record> records);

/** Write every kept span as Chrome trace-event JSON (Perfetto). */
void writeChromeTrace(const std::string& path);

} // namespace spans

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
