/**
 * @file
 * Hardware performance-counter sampling via perf_event_open.
 *
 * The paper's characterization is built on measured counters (perf,
 * VTune top-down); the suite's CacheSim/topdown numbers are a model.
 * PerfCounters lets the bench binaries print measured cycles,
 * instructions, LLC misses and branch misses *beside* the modeled
 * columns so divergence is visible instead of silent.
 *
 * Degradation contract: when perf_event_open is unavailable (denied by
 * perf_event_paranoid or seccomp — common in containers and CI — or a
 * non-Linux host), sampling stays disabled, available() is false and
 * unavailableReason() says why. Callers print "n/a" columns and exit 0;
 * nothing in the suite requires the syscall to succeed. When only the
 * hardware events fail (no PMU, as in many VMs), the software events
 * (task-clock, page-faults, context-switches) are opened as a group of
 * their own: available() stays false and the hardware fields stay -1,
 * but task_clock_seconds, page_faults and context_switches are
 * measured.
 *
 * Counters are per-thread (the calling thread): sample around work
 * executed on a 1-thread ThreadPool to capture a whole kernel run, or
 * treat the sample as rank 0's share under multi-threaded runs.
 */
#ifndef GB_METRICS_PERF_COUNTERS_H
#define GB_METRICS_PERF_COUNTERS_H

#include <string>

#include "util/common.h"

namespace gb::metrics {

/**
 * One stop()ped counter reading. Counters that could not be opened or
 * never ran are negative; helpers return -1 when any input is invalid,
 * and printers show "n/a" for negative values.
 */
struct PerfSample
{
    /** false => every hardware counter is invalid. */
    bool available = false;
    std::string unavailable_reason; ///< set when !available

    double cycles = -1.0;
    double instructions = -1.0;
    double llc_misses = -1.0;
    double branch_misses = -1.0;
    double task_clock_seconds = -1.0; ///< valid even without a PMU
    double page_faults = -1.0;        ///< software event, as task-clock
    /** Software event; counted in the kernel, where switches happen. */
    double context_switches = -1.0;

    /** True if `v` is a valid counter value. */
    static bool valid(double v) { return v >= 0.0; }

    /** Instructions per cycle, or -1. */
    double ipc() const;

    /** `events` per thousand instructions, or -1. */
    double perKiloInstructions(double events) const;
};

/**
 * RAII bundle of perf fds for the calling thread: cycles,
 * instructions, LLC-misses, branch-misses, task-clock, page-faults and
 * context-switches, opened as one event group led by cycles
 * (PERF_FORMAT_GROUP), or led by task-clock without the hardware
 * ones. All members are scheduled onto the PMU together and stop()
 * reads the whole group atomically in a single syscall, so every
 * counter in a sample covers the same instruction stream — ratios
 * like IPC and misses/kilo-inst are internally consistent. Counters the kernel multiplexes share
 * one time_enabled/time_running scale factor.
 */
class PerfCounters
{
  public:
    PerfCounters();
    ~PerfCounters();

    PerfCounters(const PerfCounters&) = delete;
    PerfCounters& operator=(const PerfCounters&) = delete;

    /** True when at least cycles+instructions opened. */
    bool available() const { return available_; }

    /** Why counters are disabled (empty when available()). */
    const std::string& unavailableReason() const { return reason_; }

    /** Reset and enable all open counters. */
    void start();

    /** Disable counters and read them out. */
    PerfSample stop();

  private:
    static constexpr int kNumEvents = 7;
    static constexpr int kTaskClock = 4; ///< the first software event
    static constexpr int kPageFaults = 5;
    static constexpr int kContextSwitches = 6;
    int fds_[kNumEvents] = {-1, -1, -1, -1, -1, -1, -1};
    /** Event's slot in the group read's value array (-1: not open). */
    int group_slot_[kNumEvents] = {-1, -1, -1, -1, -1, -1, -1};
    int n_open_ = 0;
    int leader_ = -1; ///< event whose fd leads the group (-1: none)
    bool available_ = false;
    std::string reason_;
};

} // namespace gb::metrics

#endif // GB_METRICS_PERF_COUNTERS_H
