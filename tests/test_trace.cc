/**
 * @file
 * Tests for gb::trace: name interning, ring wrap/drop accounting, the
 * disabled-collector fast path (pinned allocation-free), concurrent
 * recording from ThreadPool workers, and the Chrome trace-event
 * exporter / parser / summarizer round trip.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "util/thread_pool.h"

// ---------------------------------------------------------------------
// Global allocation counter. Every `new` in this binary (gtest
// included) funnels through the replaceable global operators, so a test
// can pin a code region as allocation-free by diffing the counter
// around it. The nothrow forms are replaced too (std::stable_sort's
// temporary buffer uses them and frees through plain delete): every
// allocation this file hands out and every one it frees must come from
// the same malloc/free pair, or a sanitizer build reports an
// alloc-dealloc mismatch.

namespace {
std::atomic<unsigned long long> g_allocations{0};
} // namespace

void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

// GCC pairs the inlined free() below with its built-in notion of the
// default operator new and reports -Wmismatched-new-delete at -O with
// sanitizers; the replaced operator new above is malloc-based, so the
// pairing is in fact consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace gb::trace {
namespace {

/** start()/stop() guard so every test leaves the collector off. */
struct Collector
{
    explicit Collector(size_t capacity = kDefaultRingCapacity)
    {
        start(capacity);
    }
    ~Collector() { stop(); }
};

TEST(Trace, InternedNamesAreStableNonZero)
{
    const u32 id = internName("test:intern");
    EXPECT_NE(id, 0u);
    EXPECT_EQ(internName("test:intern"), id);
    EXPECT_NE(internName("test:intern-2"), id);
    EXPECT_EQ(nameOf(id), "test:intern");
    EXPECT_EQ(nameOf(0), "?");
    EXPECT_EQ(nameOf(0xffffffffu), "?");
}

TEST(Trace, CategoryNames)
{
    EXPECT_STREQ(categoryName(Category::kServe), "serve");
    EXPECT_STREQ(categoryName(Category::kCache), "cache");
    EXPECT_STREQ(categoryName(Category::kNet), "net");
    EXPECT_STREQ(categoryName(Category::kPool), "pool");
    EXPECT_STREQ(categoryName(Category::kKernel), "kernel");
    EXPECT_STREQ(categoryName(Category::kOther), "other");
}

TEST(Trace, ScopedJobIdSavesAndRestores)
{
    EXPECT_EQ(currentJobId(), 0u);
    {
        ScopedJobId outer(7);
        EXPECT_EQ(currentJobId(), 7u);
        {
            ScopedJobId inner(9);
            EXPECT_EQ(currentJobId(), 9u);
        }
        EXPECT_EQ(currentJobId(), 7u);
    }
    EXPECT_EQ(currentJobId(), 0u);
}

TEST(Trace, RecordsSpansAndInstantsWithContext)
{
    Collector collector;
    const u64 t0 = nowNs();
    {
        ScopedJobId scope(11);
        GB_TRACE_SPAN(Category::kKernel, "unit:span", 7);
        GB_TRACE_INSTANT(Category::kServe, "unit:instant", 9);
    }
    stop();

    const auto events = snapshot();
    ASSERT_EQ(events.size(), 2u);
    // snapshot() sorts by begin time: the span opened first.
    const EventView& span = events[0];
    EXPECT_EQ(span.name, "unit:span");
    EXPECT_EQ(span.category, Category::kKernel);
    EXPECT_FALSE(span.instant);
    EXPECT_GE(span.begin_ns, t0);
    EXPECT_LE(span.begin_ns, span.end_ns);
    EXPECT_EQ(span.job_id, 11u);
    EXPECT_EQ(span.arg, 7u);

    const EventView& instant = events[1];
    EXPECT_EQ(instant.name, "unit:instant");
    EXPECT_EQ(instant.category, Category::kServe);
    EXPECT_TRUE(instant.instant);
    EXPECT_EQ(instant.begin_ns, instant.end_ns);
    EXPECT_EQ(instant.job_id, 11u);
    EXPECT_EQ(instant.arg, 9u);
}

TEST(Trace, RingWrapKeepsNewestAndCountsDrops)
{
    Collector collector(8);
    const u32 id = internName("wrap:event");
    for (u64 i = 0; i < 20; ++i) {
        recordInstant(id, Category::kOther, i);
    }
    stop();

    const Counts c = counts();
    EXPECT_EQ(c.recorded, 20u);
    EXPECT_EQ(c.dropped, 12u);

    // The ring keeps exactly the newest capacity events, in order.
    const auto events = snapshot();
    ASSERT_EQ(events.size(), 8u);
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].arg, 12 + i);
    }

    // The exporter reports the loss in otherData.
    std::ostringstream out;
    const ExportStats stats = writeChromeTrace(out);
    EXPECT_EQ(stats.events, 8u);
    EXPECT_EQ(stats.dropped, 12u);
    std::istringstream in(out.str());
    const ParsedTrace trace = parseChromeTrace(in);
    EXPECT_EQ(trace.events.size(), 8u);
    EXPECT_EQ(trace.recorded_events, 20u);
    EXPECT_EQ(trace.dropped_events, 12u);
}

TEST(Trace, DisabledCollectorIsInertAndAllocationFree)
{
    ASSERT_FALSE(enabled());
    const u32 id = internName("disabled:event");
    const Counts before_counts = counts();
    const unsigned long long before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        GB_TRACE_SPAN(Category::kOther, "disabled:span");
        GB_TRACE_INSTANT(Category::kOther, "disabled:instant");
        recordSpan(id, Category::kOther, 1, 2);
        recordInstant(id, Category::kOther);
    }
    const unsigned long long after =
        g_allocations.load(std::memory_order_relaxed);
    const Counts after_counts = counts();
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(after_counts.recorded, before_counts.recorded);
}

TEST(Trace, EnabledSteadyStateDoesNotAllocate)
{
    Collector collector;
    const u32 span_id = internName("steady:span");
    const u32 instant_id = internName("steady:instant");
    // Warm-up registers this thread's ring; after that, recording is
    // plain stores into it.
    recordInstant(instant_id, Category::kOther);
    const unsigned long long before =
        g_allocations.load(std::memory_order_relaxed);
    for (u64 i = 0; i < 1000; ++i) {
        recordSpan(span_id, Category::kOther, nowNs(), nowNs(), i);
        recordInstant(instant_id, Category::kOther, i);
    }
    const unsigned long long after =
        g_allocations.load(std::memory_order_relaxed);
    stop();
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(counts().recorded, 2001u);
}

TEST(Trace, SpanGuardConstructedWhileDisabledStaysInert)
{
    ASSERT_FALSE(enabled());
    {
        Span span(internName("inert:span"), Category::kOther);
        // Enabling mid-scope must not arm an already-constructed
        // guard; its destructor records nothing.
        start(64);
    }
    const Counts c = counts();
    stop();
    EXPECT_EQ(c.recorded, 0u);
}

TEST(Trace, ConcurrentPoolWritersAttributeJobId)
{
    Collector collector;
    ThreadPool pool(4);
    {
        ScopedJobId scope(42);
        pool.parallelFor(512, [](u64 i) {
            GB_TRACE_INSTANT(Category::kOther, "pool-test:tick", i);
        });
    }
    stop();

    const Counts c = counts();
    EXPECT_EQ(c.dropped, 0u);
    const auto events = snapshot();
    EXPECT_EQ(events.size(), c.recorded);
    u64 ticks = 0;
    u64 participates = 0;
    u64 participate_indices = 0;
    for (const EventView& ev : events) {
        EXPECT_LE(ev.begin_ns, ev.end_ns);
        if (ev.name == "pool-test:tick") ++ticks;
        if (ev.name == "pool:participate") {
            ++participates;
            participate_indices += ev.arg;
            // Workers record on behalf of the submitting thread's job.
            EXPECT_EQ(ev.job_id, 42u);
        }
    }
    EXPECT_EQ(ticks, 512u);
    EXPECT_GE(participates, 1u);
    EXPECT_EQ(participate_indices, 512u);
}

TEST(Trace, ExporterRoundTripsThroughParser)
{
    Collector collector;
    {
        ScopedJobId scope(7);
        Span span(internName("export:span"), Category::kKernel, 5);
    }
    GB_TRACE_INSTANT(Category::kNet, "export:instant", 3);
    stop();

    std::ostringstream out;
    const ExportStats stats = writeChromeTrace(out);
    EXPECT_EQ(stats.events, 2u);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_GE(stats.rings, 1u);

    std::istringstream in(out.str());
    const ParsedTrace trace = parseChromeTrace(in);
    ASSERT_EQ(trace.events.size(), 2u);
    EXPECT_EQ(trace.recorded_events, 2u);
    EXPECT_EQ(trace.dropped_events, 0u);
    EXPECT_EQ(trace.rings, stats.rings);

    const ParsedEvent& span = trace.events[0];
    EXPECT_EQ(span.name, "export:span");
    EXPECT_EQ(span.category, "kernel");
    EXPECT_EQ(span.phase, "X");
    EXPECT_EQ(span.job_id, 7u);
    EXPECT_EQ(span.arg, 5u);

    const ParsedEvent& instant = trace.events[1];
    EXPECT_EQ(instant.name, "export:instant");
    EXPECT_EQ(instant.category, "net");
    EXPECT_EQ(instant.phase, "i");
    EXPECT_EQ(instant.arg, 3u);
    EXPECT_EQ(instant.dur_us, 0.0);

    // Process metadata plus one thread_name entry per ring.
    u64 process_names = 0;
    u64 thread_names = 0;
    for (const ParsedEvent& ev : trace.metadata) {
        EXPECT_EQ(ev.phase, "M");
        if (ev.name == "process_name") ++process_names;
        if (ev.name == "thread_name") ++thread_names;
    }
    EXPECT_EQ(process_names, 1u);
    EXPECT_EQ(thread_names, stats.rings);
}

TEST(Trace, FileExportAndParseRoundTrip)
{
    Collector collector;
    GB_TRACE_INSTANT(Category::kOther, "file:instant");
    stop();

    const std::string path =
        (std::filesystem::temp_directory_path() / "gb_test_trace.json")
            .string();
    const ExportStats stats = writeChromeTraceFile(path);
    EXPECT_EQ(stats.events, 1u);
    const ParsedTrace trace = parseChromeTraceFile(path);
    ASSERT_EQ(trace.events.size(), 1u);
    EXPECT_EQ(trace.events[0].name, "file:instant");
    std::filesystem::remove(path);

    EXPECT_THROW(writeChromeTraceFile("/nonexistent-gb-dir/t.json"),
                 InputError);
    EXPECT_THROW(parseChromeTraceFile(path), InputError); // removed
}

TEST(Trace, ParserRejectsMalformedDocuments)
{
    const auto parse = [](const std::string& text) {
        std::istringstream in(text);
        return parseChromeTrace(in);
    };
    EXPECT_THROW(parse("not json"), InputError);
    EXPECT_THROW(parse("[]"), InputError); // not an object
    EXPECT_THROW(parse("{}"), InputError); // no traceEvents
    EXPECT_THROW(parse("{\"traceEvents\": 5}"), InputError);
    EXPECT_THROW(parse("{\"traceEvents\": ["), InputError); // truncated
    EXPECT_THROW(parse("{\"traceEvents\": [{\"name\":\"x\"}]}"),
                 InputError); // missing ph
    EXPECT_THROW(parse("{} trailing"), InputError);
    EXPECT_THROW(parse("{\"a\": \"\\u12\"}"), InputError);
}

TEST(Trace, ParserHandlesEscapesAndNumbers)
{
    std::istringstream in(
        "{\"traceEvents\": [{\"name\":\"a\\\"b\\u0041\",\"cat\":\"x\","
        "\"ph\":\"i\",\"ts\":12.5,\"tid\":3,"
        "\"args\":{\"job\":9,\"arg\":2,\"rank\":1}}],"
        "\"otherData\":{\"rings\":1,\"recorded_events\":1,"
        "\"dropped_events\":0}}");
    const ParsedTrace trace = parseChromeTrace(in);
    ASSERT_EQ(trace.events.size(), 1u);
    EXPECT_EQ(trace.events[0].name, "a\"bA");
    EXPECT_DOUBLE_EQ(trace.events[0].ts_us, 12.5);
    EXPECT_EQ(trace.events[0].tid, 3u);
    EXPECT_EQ(trace.events[0].job_id, 9u);
    EXPECT_EQ(trace.events[0].rank, 1u);
}

TEST(Trace, SummarizeAggregatesSpans)
{
    const auto span = [](const char* name, const char* cat, double ts,
                         double dur) {
        ParsedEvent ev;
        ev.name = name;
        ev.category = cat;
        ev.phase = "X";
        ev.ts_us = ts;
        ev.dur_us = dur;
        return ev;
    };
    ParsedTrace trace;
    trace.events.push_back(span("a", "kernel", 0.0, 10.0));
    trace.events.push_back(span("a", "kernel", 50.0, 20.0));
    trace.events.push_back(span("b", "serve", 5.0, 5.0));
    ParsedEvent instant;
    instant.name = "tick";
    instant.category = "net";
    instant.phase = "i";
    instant.ts_us = 1.0;
    trace.events.push_back(instant);
    trace.dropped_events = 3;
    trace.rings = 2;

    const InspectSummary s = summarize(trace, 2);
    EXPECT_EQ(s.spans, 3u);
    EXPECT_EQ(s.instants, 1u);
    EXPECT_EQ(s.dropped_events, 3u);
    EXPECT_EQ(s.rings, 2u);
    EXPECT_DOUBLE_EQ(s.extent_us, 70.0); // first begin 0, last end 70

    ASSERT_EQ(s.by_name.size(), 2u); // sorted by total desc
    EXPECT_EQ(s.by_name[0].name, "a");
    EXPECT_EQ(s.by_name[0].count, 2u);
    EXPECT_DOUBLE_EQ(s.by_name[0].total_us, 30.0);
    EXPECT_DOUBLE_EQ(s.by_name[0].max_us, 20.0);
    EXPECT_EQ(s.by_name[1].name, "b");

    ASSERT_EQ(s.by_category.size(), 2u);
    EXPECT_EQ(s.by_category[0].category, "kernel");
    EXPECT_EQ(s.by_category[0].count, 2u);
    EXPECT_EQ(s.by_category[1].category, "serve");

    ASSERT_EQ(s.longest.size(), 2u); // top_n honored
    EXPECT_DOUBLE_EQ(s.longest[0].dur_us, 20.0);
    EXPECT_DOUBLE_EQ(s.longest[1].dur_us, 10.0);
}

} // namespace
} // namespace gb::trace
