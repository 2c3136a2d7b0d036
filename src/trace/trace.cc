#include "trace/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_map>

#include "util/json.h"

namespace gb::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

/** One recorded event, fixed-size POD (40 bytes). */
struct Event
{
    u64 begin_ns;
    u64 end_ns; ///< == begin_ns for instants
    u64 job_id;
    u64 arg;
    u32 name_id;
    u8 category;
    u8 instant;
    u16 thread_rank;
};

/**
 * One thread's ring. Single writer (the owning thread); readers
 * (export, counts) only run while recorders are quiescent, but the
 * `written` counter is atomic so concurrent counts() stay clean under
 * TSan. The buffer itself is never deallocated while the process
 * lives — threads cache a raw pointer to it — only reset/resized by
 * start() under the registry lock. When its thread exits the ring
 * goes on the free list, and the next new recording thread appends
 * to it: the ring count follows the peak number of live recording
 * threads, not the number of threads ever started.
 */
struct ThreadBuffer
{
    u32 id = 0;                 ///< stable ring id (export "tid")
    std::vector<Event> ring;    ///< capacity-sized storage
    std::atomic<u64> written{0}; ///< events ever recorded
};

struct Registry
{
    std::mutex mutex;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    std::vector<ThreadBuffer*> free; ///< rings of exited threads
    size_t ring_capacity = kDefaultRingCapacity;

    std::mutex names_mutex;
    std::vector<std::string> names;            // index = id - 1
    std::unordered_map<std::string, u32> ids;
};

Registry&
registry()
{
    static Registry* r = new Registry; // leaked: threads hold pointers
    return *r;
}

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local u64 t_job_id = 0;
thread_local u16 t_rank = 0;

std::chrono::steady_clock::time_point
epoch()
{
    static const std::chrono::steady_clock::time_point e =
        std::chrono::steady_clock::now();
    return e;
}

/** Hands the thread's ring back to the free list at thread exit. */
struct RingRelease
{
    ~RingRelease()
    {
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.free.push_back(t_buffer);
        t_buffer = nullptr;
    }
};

ThreadBuffer*
myBuffer()
{
    if (t_buffer == nullptr) {
        Registry& r = registry();
        {
            std::lock_guard<std::mutex> lock(r.mutex);
            if (!r.free.empty()) {
                t_buffer = r.free.back();
                r.free.pop_back();
            } else {
                auto buf = std::make_unique<ThreadBuffer>();
                buf->id = static_cast<u32>(r.buffers.size());
                buf->ring.resize(r.ring_capacity);
                t_buffer = buf.get();
                r.buffers.push_back(std::move(buf));
            }
        }
        // Constructed once per thread, on its first event; the fast
        // path above reads only the trivial t_buffer.
        thread_local RingRelease release;
    }
    return t_buffer;
}

void
push(ThreadBuffer* buf, const Event& ev)
{
    const u64 written = buf->written.load(std::memory_order_relaxed);
    buf->ring[written % buf->ring.size()] = ev;
    buf->written.store(written + 1, std::memory_order_release);
}

void
record(u32 name_id, Category category, bool instant, u64 begin_ns,
       u64 end_ns, u64 job_id, u64 arg, u16 rank)
{
    if (name_id == 0 || !enabled()) return;
    Event ev;
    ev.begin_ns = begin_ns;
    ev.end_ns = end_ns < begin_ns ? begin_ns : end_ns;
    ev.job_id = job_id;
    ev.arg = arg;
    ev.name_id = name_id;
    ev.category = static_cast<u8>(category);
    ev.instant = instant ? 1 : 0;
    ev.thread_rank = rank;
    push(myBuffer(), ev);
}

/** Format trace ns as microseconds with ns precision ("12.345"). */
std::string
formatUs(u64 ns)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return buf;
}

} // namespace

const char*
categoryName(Category category)
{
    switch (category) {
    case Category::kServe: return "serve";
    case Category::kCache: return "cache";
    case Category::kNet: return "net";
    case Category::kPool: return "pool";
    case Category::kKernel: return "kernel";
    case Category::kOther: return "other";
    }
    return "other";
}

u32
internName(std::string_view name)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.names_mutex);
    std::string key(name);
    auto it = r.ids.find(key);
    if (it != r.ids.end()) return it->second;
    r.names.push_back(key);
    const u32 id = static_cast<u32>(r.names.size()); // 1-based
    r.ids.emplace(std::move(key), id);
    return id;
}

std::string
nameOf(u32 id)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.names_mutex);
    if (id == 0 || id > r.names.size()) return "?";
    return r.names[id - 1];
}

u64
nowNs()
{
    const auto dt = std::chrono::steady_clock::now() - epoch();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count();
    return ns < 1 ? 1u : static_cast<u64>(ns);
}

u64
toNs(std::chrono::steady_clock::time_point tp)
{
    const auto dt = tp - epoch();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count();
    return ns < 1 ? 1u : static_cast<u64>(ns);
}

void
start(size_t ring_capacity)
{
    requireInput(ring_capacity > 0, "trace ring capacity must be > 0");
    (void)epoch(); // pin the epoch before the first event
    Registry& r = registry();
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        r.ring_capacity = ring_capacity;
        for (auto& buf : r.buffers) {
            buf->written.store(0, std::memory_order_relaxed);
            if (buf->ring.size() != ring_capacity) {
                buf->ring.assign(ring_capacity, Event{});
            }
        }
    }
    detail::g_enabled.store(true, std::memory_order_release);
}

void
stop()
{
    detail::g_enabled.store(false, std::memory_order_release);
}

u64
currentJobId()
{
    return t_job_id;
}

ScopedJobId::ScopedJobId(u64 job_id) : saved_(t_job_id)
{
    t_job_id = job_id;
}

ScopedJobId::~ScopedJobId()
{
    t_job_id = saved_;
}

void
setThreadRank(u16 rank)
{
    t_rank = rank;
}

u16
threadRank()
{
    return t_rank;
}

void
recordSpan(u32 name_id, Category category, u64 begin_ns, u64 end_ns,
           u64 arg)
{
    record(name_id, category, false, begin_ns, end_ns, t_job_id, arg,
           t_rank);
}

void
recordSpanEx(u32 name_id, Category category, u64 begin_ns, u64 end_ns,
             u64 job_id, u64 arg, u16 rank)
{
    record(name_id, category, false, begin_ns, end_ns, job_id, arg,
           rank);
}

void
recordInstant(u32 name_id, Category category, u64 arg)
{
    const u64 now = nowNs();
    record(name_id, category, true, now, now, t_job_id, arg, t_rank);
}

void
recordInstantEx(u32 name_id, Category category, u64 job_id, u64 arg,
                u16 rank)
{
    const u64 now = nowNs();
    record(name_id, category, true, now, now, job_id, arg, rank);
}

Counts
counts()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    Counts c;
    c.rings = r.buffers.size();
    for (const auto& buf : r.buffers) {
        const u64 written = buf->written.load(std::memory_order_acquire);
        c.recorded += written;
        if (written > buf->ring.size()) {
            c.dropped += written - buf->ring.size();
        }
    }
    return c;
}

std::vector<EventView>
snapshot()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    struct Raw
    {
        Event ev;
        u32 ring;
    };
    std::vector<Raw> raw;
    for (const auto& buf : r.buffers) {
        const u64 written = buf->written.load(std::memory_order_acquire);
        const u64 cap = buf->ring.size();
        const u64 kept = written < cap ? written : cap;
        for (u64 i = written - kept; i < written; ++i) {
            raw.push_back({buf->ring[i % cap], buf->id});
        }
    }
    std::stable_sort(raw.begin(), raw.end(),
                     [](const Raw& a, const Raw& b) {
                         return a.ev.begin_ns < b.ev.begin_ns;
                     });
    std::vector<EventView> out;
    out.reserve(raw.size());
    for (const Raw& rw : raw) {
        EventView v;
        v.name = nameOf(rw.ev.name_id);
        v.category = static_cast<Category>(rw.ev.category);
        v.instant = rw.ev.instant != 0;
        v.begin_ns = rw.ev.begin_ns;
        v.end_ns = rw.ev.end_ns;
        v.job_id = rw.ev.job_id;
        v.arg = rw.ev.arg;
        v.thread_rank = rw.ev.thread_rank;
        v.ring = rw.ring;
        out.push_back(std::move(v));
    }
    return out;
}

ExportStats
writeChromeTrace(std::ostream& out)
{
    const Counts c = counts();
    const std::vector<EventView> events = snapshot();

    ExportStats stats;
    stats.events = events.size();
    stats.dropped = c.dropped;
    stats.rings = c.rings;

    out << "{\n\"traceEvents\": [\n";
    bool first = true;
    auto sep = [&]() {
        if (!first) out << ",\n";
        first = false;
    };
    for (const EventView& ev : events) {
        sep();
        out << "{\"name\":\"" << jsonEscape(ev.name) << "\",\"cat\":\""
            << categoryName(ev.category) << "\",\"ph\":\""
            << (ev.instant ? "i" : "X") << "\",\"ts\":"
            << formatUs(ev.begin_ns);
        if (!ev.instant) {
            out << ",\"dur\":" << formatUs(ev.end_ns - ev.begin_ns);
        } else {
            out << ",\"s\":\"t\"";
        }
        out << ",\"pid\":1,\"tid\":" << ev.ring << ",\"args\":{\"job\":"
            << ev.job_id << ",\"arg\":" << ev.arg << ",\"rank\":"
            << ev.thread_rank << "}}";
    }
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
           "\"args\":{\"name\":\"genomicsbench\"}}";
    for (u64 ring = 0; ring < stats.rings; ++ring) {
        sep();
        out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
            << ring << ",\"args\":{\"name\":\"thread " << ring << "\"}}";
    }
    out << "\n],\n\"otherData\": {\"rings\": " << stats.rings
        << ", \"recorded_events\": " << c.recorded
        << ", \"dropped_events\": " << stats.dropped << "}\n}\n";
    return stats;
}

ExportStats
writeChromeTraceFile(const std::string& path)
{
    std::ofstream out(path);
    requireInput(out.good(),
                 "cannot open trace output file: " + path);
    const ExportStats stats = writeChromeTrace(out);
    out.flush();
    requireInput(out.good(), "failed writing trace file: " + path);
    return stats;
}

} // namespace gb::trace
