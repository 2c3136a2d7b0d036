#include "metrics/perf_counters.h"

#include <cerrno>
#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace gb::metrics {

double
PerfSample::ipc() const
{
    if (!valid(cycles) || !valid(instructions) || cycles == 0.0) {
        return -1.0;
    }
    return instructions / cycles;
}

double
PerfSample::perKiloInstructions(double events) const
{
    if (!valid(events) || !valid(instructions) || instructions == 0.0) {
        return -1.0;
    }
    return events / (instructions / 1000.0);
}

#if defined(__linux__)

namespace {

struct EventSpec
{
    u32 type;
    u64 config;
    const char* name;
    bool user_only = true; ///< exclude_kernel
};

/** Sampled events, in PerfSample field order. */
constexpr EventSpec kEvents[] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, "cycles"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, "instructions"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES, "LLC-misses"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, "branch-misses"},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, "task-clock"},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS, "page-faults"},
    // A switch happens in the kernel: a user-only count reads 0.
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES,
     "context-switches", false},
};

int
openEvent(const EventSpec& spec, int group_fd)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    attr.type = spec.type;
    attr.config = spec.config;
    // Members start enabled and count while the disabled leader is
    // enabled; a member opened disabled may never count (page-faults
    // under a task-clock leader reads 0).
    attr.disabled = group_fd < 0;
    // User-space only: works at perf_event_paranoid <= 2 (the common
    // container default) and matches what the kernels themselves cost.
    attr.exclude_kernel = spec.user_only;
    attr.exclude_hv = 1;
    // Only the leader is read; its group read returns every member's
    // value plus one shared enabled/running pair for scaling.
    if (group_fd < 0) {
        attr.read_format = PERF_FORMAT_GROUP |
                           PERF_FORMAT_TOTAL_TIME_ENABLED |
                           PERF_FORMAT_TOTAL_TIME_RUNNING;
    }
    return static_cast<int>(syscall(SYS_perf_event_open, &attr,
                                    /*pid=*/0, /*cpu=*/-1, group_fd,
                                    /*flags=*/0UL));
}

} // namespace

PerfCounters::PerfCounters()
{
    // Cycles leads the group; members join it so the PMU schedules
    // (and multiplexes) all seven events as one unit.
    for (int i = 0; i < kNumEvents; ++i) {
        fds_[i] = openEvent(kEvents[i], i == 0 ? -1 : fds_[0]);
        if (fds_[i] < 0 && i < 2) {
            // cycles/instructions are the spine; without them the
            // hardware sample is useless, so report the first failure.
            reason_ = std::string("perf_event_open(") + kEvents[i].name +
                      "): " + std::strerror(errno);
            for (int j = 0; j < i; ++j) {
                close(fds_[j]);
                fds_[j] = -1;
            }
            // Without a PMU (a VM or container with no hardware
            // events) the software events still count: open them as a
            // group of their own, led by task-clock, so the CPU time,
            // page faults and context switches survive.
            n_open_ = 0;
            fds_[kTaskClock] = openEvent(kEvents[kTaskClock], -1);
            if (fds_[kTaskClock] < 0) return;
            group_slot_[kTaskClock] = n_open_++;
            leader_ = kTaskClock;
            for (int j = kTaskClock + 1; j < kNumEvents; ++j) {
                fds_[j] = openEvent(kEvents[j], fds_[kTaskClock]);
                if (fds_[j] >= 0) group_slot_[j] = n_open_++;
            }
            return;
        }
        if (fds_[i] >= 0) group_slot_[i] = n_open_++;
    }
    available_ = true;
    leader_ = 0;
}

PerfCounters::~PerfCounters()
{
    for (int fd : fds_) {
        if (fd >= 0) close(fd);
    }
}

void
PerfCounters::start()
{
    if (leader_ < 0) return;
    ioctl(fds_[leader_], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(fds_[leader_], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
}

PerfSample
PerfCounters::stop()
{
    PerfSample sample;
    sample.unavailable_reason = reason_;
    if (leader_ < 0) return sample;
    ioctl(fds_[leader_], PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);

    // One atomic read of the whole group:
    // { nr, time_enabled, time_running, value[nr] }.
    u64 buf[3 + kNumEvents] = {};
    const ssize_t want =
        static_cast<ssize_t>((3 + n_open_) * sizeof(u64));
    if (read(fds_[leader_], buf, sizeof buf) != want ||
        buf[0] != static_cast<u64>(n_open_)) {
        sample.unavailable_reason = "perf group read failed";
        return sample;
    }
    const u64 time_enabled = buf[1];
    const u64 time_running = buf[2];

    auto scaled = [&](int event) -> double {
        const int slot = group_slot_[event];
        if (slot < 0) return -1.0;
        const u64 value = buf[3 + slot];
        if (time_running == 0) {
            // Group never scheduled: only trust nonzero raw values.
            return value == 0 ? -1.0 : static_cast<double>(value);
        }
        return static_cast<double>(value) *
               (static_cast<double>(time_enabled) /
                static_cast<double>(time_running));
    };

    // Unopened events read -1: the hardware fields without a PMU.
    sample.available = available_;
    sample.cycles = scaled(0);
    sample.instructions = scaled(1);
    sample.llc_misses = scaled(2);
    sample.branch_misses = scaled(3);
    const double task_clock_ns = scaled(kTaskClock);
    sample.task_clock_seconds =
        task_clock_ns >= 0.0 ? task_clock_ns * 1e-9 : -1.0;
    sample.page_faults = scaled(kPageFaults);
    sample.context_switches = scaled(kContextSwitches);
    return sample;
}

#else // !__linux__

PerfCounters::PerfCounters()
    : reason_("perf_event_open is Linux-only")
{
}

PerfCounters::~PerfCounters() = default;

void
PerfCounters::start()
{
}

PerfSample
PerfCounters::stop()
{
    PerfSample sample;
    sample.unavailable_reason = reason_;
    return sample;
}

#endif

} // namespace gb::metrics
