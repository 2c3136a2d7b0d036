/**
 * @file
 * gb::trace — always-on span tracing with Perfetto export.
 *
 * A low-overhead, thread-safe span/instant-event recorder that turns
 * the serving stack's aggregate numbers (serve_summary, RankTelemetry)
 * into a timeline: where did one job's end-to-end latency actually go
 * — queue wait, single-flight prepare, timed repeats, dispatch gaps?
 *
 * Mechanics:
 *
 *  - Per-thread ring buffers of POD events. Each recording thread owns
 *    a fixed-capacity ring registered with the global collector on its
 *    first event; recording is lock-free (one writer per ring, plain
 *    array stores + one atomic counter). When a ring wraps, the oldest
 *    events are overwritten and counted as dropped — tracing never
 *    blocks or allocates on the hot path. An exiting thread hands its
 *    ring to the next new recording thread, which appends to it, so
 *    short-lived threads (serve runners, per-job pools) do not grow
 *    the collector: the ring count follows the peak number of live
 *    recording threads.
 *
 *  - String interning: event names are u32 ids into a process-global
 *    registry. The GB_TRACE_* macros cache the id in a function-local
 *    static, so a call site interns at most once.
 *
 *  - RAII `Span` guard + macros that compile to a branch on one
 *    relaxed atomic load when the collector is disabled. A disabled
 *    process pays ~one predictable branch per instrumentation point;
 *    the baseline benchmark gate in scripts/check.sh holds with the
 *    instrumentation compiled in.
 *
 *  - Chrome trace-event JSON export (`ph:"X"` complete events,
 *    `ph:"i"` instants, process/thread metadata, per-run dropped-event
 *    counts), loadable in Perfetto / chrome://tracing.
 *
 * Threading contract: record*() and the macros are safe from any
 * thread at any time. start()/stop() flip collection on/off;
 * exporting (writeChromeTrace, snapshot) expects recording threads to
 * be quiescent — stop tracing and join/drain in-flight work first, as
 * the CLI does (serve drain -> stop() -> export). See docs/tracing.md.
 */
#ifndef GB_TRACE_TRACE_H
#define GB_TRACE_TRACE_H

#include <atomic>
#include <chrono>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"

namespace gb::trace {

/** Instrumented layer of an event; one Perfetto "cat" per value. */
enum class Category : u8
{
    kServe,  ///< scheduler job lifecycle (submit/dispatch/done)
    kCache,  ///< ArtifactCache build vs single-flight wait
    kNet,    ///< gb::net sessions and request handling
    kPool,   ///< ThreadPool per-rank parallelFor participation
    kKernel, ///< registry kernel prepare/run phases
    kOther,  ///< uncategorized instrumentation
};

/** Number of categories (array sizing / iteration). */
inline constexpr int kCategories = 6;

/** Display name ("serve", "cache", "net", "pool", "kernel", "other"). */
const char* categoryName(Category category);

/** Default per-thread ring capacity (events), see start(). */
inline constexpr size_t kDefaultRingCapacity = 1 << 14;

namespace detail {
/** Global collection flag; read on every instrumentation point. */
extern std::atomic<bool> g_enabled;
} // namespace detail

/**
 * True while the collector records. The one load every disabled
 * instrumentation point pays; relaxed is enough — start()/stop()
 * ordering against in-flight recorders is by quiescence (file
 * comment), not by this flag.
 */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Intern `name`, returning its stable non-zero id. Safe from any
 * thread; ids are process-global and survive start()/stop() cycles.
 * Id 0 is reserved as the "disabled" sentinel the macros pass when
 * collection is off.
 */
u32 internName(std::string_view name);

/** Name for an interned id ("?" for unknown/0). */
std::string nameOf(u32 id);

/**
 * Nanoseconds since the process trace epoch (steady clock), > 0.
 * All event timestamps share this epoch.
 */
u64 nowNs();

/** Convert a steady_clock time point to trace nanoseconds. */
u64 toNs(std::chrono::steady_clock::time_point tp);

/**
 * Enable collection. Existing rings are reset (and re-sized if
 * `ring_capacity` changed); events from a previous run are discarded.
 * Must not race with active recorders (quiesce first).
 */
void start(size_t ring_capacity = kDefaultRingCapacity);

/** Disable collection; recorded events stay readable for export. */
void stop();

/**
 * The job id nested spans on this thread are attributed to
 * (0 = none). Set via ScopedJobId; ThreadPool propagates it to the
 * worker ranks participating in a parallelFor.
 */
u64 currentJobId();

/** RAII thread-local job-id scope (saves and restores the old id). */
class ScopedJobId
{
  public:
    explicit ScopedJobId(u64 job_id);
    ~ScopedJobId();
    ScopedJobId(const ScopedJobId&) = delete;
    ScopedJobId& operator=(const ScopedJobId&) = delete;

  private:
    u64 saved_;
};

/**
 * This thread's display rank stamped into its events (0 default;
 * ThreadPool workers set their pool rank once at startup).
 */
void setThreadRank(u16 rank);

/** Current thread display rank. */
u16 threadRank();

/**
 * Record one complete span with explicit begin/end timestamps (trace
 * ns, see nowNs()/toNs()). Job id and rank default to the calling
 * thread's current values; the *Ex variants override them (used by
 * ThreadPool, whose workers act on behalf of another thread's job).
 * No-ops when disabled or name_id == 0.
 */
void recordSpan(u32 name_id, Category category, u64 begin_ns,
                u64 end_ns, u64 arg = 0);
void recordSpanEx(u32 name_id, Category category, u64 begin_ns,
                  u64 end_ns, u64 job_id, u64 arg, u16 rank);

/** Record one instant event at now. Same defaulting as recordSpan. */
void recordInstant(u32 name_id, Category category, u64 arg = 0);
void recordInstantEx(u32 name_id, Category category, u64 job_id,
                     u64 arg, u16 rank);

/**
 * RAII span guard: records [construction, destruction) of the
 * enclosing scope. A guard constructed while the collector is
 * disabled (or with name_id 0) is inert — no clock read, no
 * recording, even if the collector is enabled before it closes.
 */
class Span
{
  public:
    Span() = default;

    Span(u32 name_id, Category category, u64 arg = 0)
    {
        if (name_id == 0 || !enabled()) return;
        name_id_ = name_id;
        category_ = category;
        arg_ = arg;
        begin_ns_ = nowNs();
    }

    ~Span()
    {
        if (begin_ns_ != 0) {
            recordSpan(name_id_, category_, begin_ns_, nowNs(), arg_);
        }
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    u64 begin_ns_ = 0; ///< 0 = inert guard
    u64 arg_ = 0;
    u32 name_id_ = 0;
    Category category_ = Category::kOther;
};

/** Collector counters (all rings). */
struct Counts
{
    u64 recorded = 0; ///< events ever written since start()
    u64 dropped = 0;  ///< overwritten by ring wraps (recorded - kept)
    u64 rings = 0;    ///< rings allocated (reused across threads)
};

Counts counts();

/** One recorded event, resolved for tests/inspection (snapshot()). */
struct EventView
{
    std::string name;
    Category category = Category::kOther;
    bool instant = false;
    u64 begin_ns = 0;
    u64 end_ns = 0;
    u64 job_id = 0;
    u64 arg = 0;
    u16 thread_rank = 0;
    u32 ring = 0; ///< owning ring id (export "tid")
};

/**
 * Merge every ring's surviving events, sorted by begin time. Expects
 * quiescent recorders (file comment).
 */
std::vector<EventView> snapshot();

/** Exporter result (also embedded in the JSON's otherData). */
struct ExportStats
{
    u64 events = 0;  ///< events written to the file
    u64 dropped = 0; ///< ring-wrap losses across all rings
    u64 rings = 0;
};

/**
 * Write the merged rings as Chrome trace-event JSON (Perfetto /
 * chrome://tracing loadable): one `ph:"X"` complete event per span,
 * `ph:"i"` per instant, `ph:"M"` process/thread metadata, and
 * `otherData.dropped_events` carrying the ring-wrap losses. Expects
 * quiescent recorders.
 */
ExportStats writeChromeTrace(std::ostream& out);

/** writeChromeTrace() to `path`; throws InputError on I/O failure. */
ExportStats writeChromeTraceFile(const std::string& path);

// ---------------------------------------------------------------------
// Macros

// Two-step concat so __LINE__ expands before pasting.
#define GB_TRACE_CONCAT_INNER(a, b) a##b
#define GB_TRACE_CONCAT(a, b) GB_TRACE_CONCAT_INNER(a, b)

/**
 * Intern `name` once per expansion site (function-local static inside
 * an immediately-invoked lambda, so every use gets its own cache).
 * Only evaluated when the collector is enabled.
 */
#define GB_TRACE_NAME_ID(name)                                         \
    ([]() -> ::gb::u32 {                                               \
        static const ::gb::u32 gb_trace_cached_id =                    \
            ::gb::trace::internName(name);                             \
        return gb_trace_cached_id;                                     \
    }())

/**
 * RAII span over the enclosing scope:
 *   GB_TRACE_SPAN(trace::Category::kServe, "dispatch", job_threads);
 * `name` must be a constant expression string (it is interned once);
 * the optional trailing argument is the event's numeric arg. When the
 * collector is disabled this is one relaxed load + branch.
 */
#define GB_TRACE_SPAN(category, name, ...)                             \
    const ::gb::trace::Span GB_TRACE_CONCAT(gb_trace_span_, __LINE__)( \
        ::gb::trace::enabled() ? GB_TRACE_NAME_ID(name) : 0u,          \
        (category), ##__VA_ARGS__)

/** Instant-event macro; same cost model as GB_TRACE_SPAN. */
#define GB_TRACE_INSTANT(category, name, ...)                          \
    do {                                                               \
        if (::gb::trace::enabled()) {                                  \
            ::gb::trace::recordInstant(GB_TRACE_NAME_ID(name),         \
                                       (category), ##__VA_ARGS__);     \
        }                                                              \
    } while (0)

} // namespace gb::trace

#endif // GB_TRACE_TRACE_H
