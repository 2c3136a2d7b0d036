/**
 * @file
 * Unit tests for the metrics module: JSON rendering primitives, the
 * MetricsSink schema contract (gb-metrics-v1), table mirroring, and
 * the PerfCounters degradation contract, including the software-only
 * group (task-clock, page-faults, context-switches) opened without a
 * PMU.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "metrics/metrics_sink.h"
#include "metrics/perf_counters.h"
#include "metrics/pooled_counters.h"
#include "util/json.h"
#include "util/table.h"
#include "util/thread_pool.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace gb::metrics {
namespace {

TEST(JsonEscape, PlainTextUntouched)
{
    EXPECT_EQ(jsonEscape("bsw tiny 1.5"), "bsw tiny 1.5");
}

TEST(JsonEscape, QuotesAndBackslashes)
{
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscape, ControlCharacters)
{
    EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonEscape, Utf8PassesThrough)
{
    EXPECT_EQ(jsonEscape("µs — ok"), "µs — ok");
}

TEST(JsonNumber, IntegersRenderExactly)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(-7.0), "-7");
}

TEST(JsonNumber, RoundTripsArbitraryDoubles)
{
    for (const double v : {0.1, 1.0 / 3.0, 2.5e-8, 9.87654321e12,
                           -123.456789012345, 1e300}) {
        const std::string text = jsonNumber(v);
        EXPECT_EQ(std::stod(text), v) << "text: " << text;
        // JSON numbers never carry a trailing 'f' or leading '+'.
        EXPECT_EQ(text.find('f'), std::string::npos);
        EXPECT_NE(text.front(), '+');
    }
}

TEST(JsonNumber, NonFiniteBecomesNull)
{
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
}

RunMeta
testMeta()
{
    RunMeta meta;
    meta.experiment = "test-exp";
    meta.paper_ref = "unit test";
    meta.git_sha = "cafe123"; // pinned: schema test is byte-exact
    meta.size = "tiny";
    meta.simd_level = "avx2";
    meta.threads = 4;
    return meta;
}

TEST(MetricsSink, DisabledByDefault)
{
    MetricsSink sink;
    EXPECT_FALSE(sink.enabled());
    // Row setters must be harmless no-ops on a disabled sink.
    sink.newRow("t").str("k", "v").num("n", 1.0).count("c", 2).flag(
        "f", true);
    EXPECT_NO_THROW(sink.close());
}

TEST(MetricsSink, SchemaStableDocument)
{
    MetricsSink sink;
    sink.begin(testMeta());
    EXPECT_TRUE(sink.enabled());
    sink.newRow("demo").str("kernel", "bsw").num("bpki", 3.5).count(
        "ops", 1234);
    sink.newRow("demo").str("kernel", "fmi").flag("gpu", false);

    const std::string expected =
        "{\n"
        "  \"schema\": \"gb-metrics-v1\",\n"
        "  \"meta\": {\"experiment\":\"test-exp\","
        "\"paper_ref\":\"unit test\",\"git_sha\":\"cafe123\","
        "\"size\":\"tiny\",\"threads\":4,"
        "\"simd_level\":\"avx2\",\"host_hw_threads\":" +
        std::to_string(std::thread::hardware_concurrency()) +
        "},\n"
        "  \"rows\": [\n"
        "    {\"table\":\"demo\",\"kernel\":\"bsw\",\"bpki\":3.5,"
        "\"ops\":1234},\n"
        "    {\"table\":\"demo\",\"kernel\":\"fmi\",\"gpu\":false}\n"
        "  ]\n"
        "}\n";
    EXPECT_EQ(sink.json(), expected);
}

TEST(MetricsSink, EmptyRowsStillValidDocument)
{
    MetricsSink sink;
    sink.begin(testMeta());
    const std::string doc = sink.json();
    EXPECT_NE(doc.find("\"schema\": \"gb-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"rows\": []"), std::string::npos);
}

TEST(MetricsSink, DefaultGitShaIsBuildSha)
{
    MetricsSink sink;
    RunMeta meta = testMeta();
    meta.git_sha.clear();
    sink.begin(std::move(meta));
    EXPECT_NE(sink.json().find("\"git_sha\":\"" + buildGitSha() + "\""),
              std::string::npos);
    EXPECT_FALSE(buildGitSha().empty());
}

TEST(MetricsSink, WritesFileOnClose)
{
    const std::string path =
        testing::TempDir() + "/gb_metrics_test.json";
    {
        MetricsSink sink;
        sink.open(path, testMeta());
        sink.newRow("t").num("v", 1.25);
        sink.close();
        sink.close(); // idempotent
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("\"v\":1.25"), std::string::npos);
    EXPECT_NE(body.str().find("gb-metrics-v1"), std::string::npos);
    std::remove(path.c_str());
}

TEST(MetricsSink, WriteFailureThrows)
{
    MetricsSink sink;
    sink.open("/nonexistent-dir/sub/metrics.json", testMeta());
    EXPECT_THROW(sink.close(), InputError);
    // Destructor after a failed close must not throw (closed_ set).
}

TEST(MetricsSink, OpenRejectsEmptyPath)
{
    MetricsSink sink;
    EXPECT_THROW(sink.open("", testMeta()), InputError);
}

TEST(EmitTable, NumericCellsBecomeJsonNumbers)
{
    Table table("traffic");
    table.setHeader({"kernel", "ops", "bpki", "note"});
    table.newRow()
        .cell("bsw")
        .cell("1,234,567") // thousands separators stripped
        .cellF(3.5, 2)
        .cell("n/a");

    MetricsSink sink;
    sink.begin(testMeta());
    emitTable(sink, table);
    const std::string doc = sink.json();
    EXPECT_NE(doc.find("\"table\":\"traffic\""), std::string::npos);
    EXPECT_NE(doc.find("\"kernel\":\"bsw\""), std::string::npos);
    EXPECT_NE(doc.find("\"ops\":1234567"), std::string::npos);
    EXPECT_NE(doc.find("\"bpki\":3.5"), std::string::npos);
    EXPECT_NE(doc.find("\"note\":\"n/a\""), std::string::npos);
}

TEST(EmitTable, DisabledSinkIsNoOp)
{
    Table table("t");
    table.setHeader({"a"});
    table.newRow().cell("x");
    MetricsSink sink;
    EXPECT_NO_THROW(emitTable(sink, table));
    EXPECT_FALSE(sink.enabled());
}

TEST(PerfSample, HelpersPropagateInvalidity)
{
    PerfSample sample; // all counters -1 by default
    EXPECT_FALSE(PerfSample::valid(sample.cycles));
    EXPECT_DOUBLE_EQ(sample.ipc(), -1.0);
    EXPECT_DOUBLE_EQ(sample.perKiloInstructions(100.0), -1.0);

    sample.cycles = 2000.0;
    sample.instructions = 4000.0;
    EXPECT_DOUBLE_EQ(sample.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(sample.perKiloInstructions(8.0), 2.0);
    EXPECT_DOUBLE_EQ(sample.perKiloInstructions(-1.0), -1.0);
}

/**
 * Degradation contract: whether or not perf_event_open works in this
 * environment, construction/start/stop must succeed and the sample
 * must be self-consistent — available with valid mandatory counters,
 * or unavailable with a reason and every counter invalid.
 */
TEST(PerfCounters, DegradationContract)
{
    PerfCounters counters;
    counters.start();
    // A little work so available counters read something non-zero.
    volatile double x = 1.0;
    for (int i = 0; i < 100'000; ++i) x = x * 1.0000001 + 0.5;
    const PerfSample sample = counters.stop();

    EXPECT_EQ(sample.available, counters.available());
    if (sample.available) {
        EXPECT_TRUE(counters.unavailableReason().empty());
        EXPECT_TRUE(PerfSample::valid(sample.cycles));
        EXPECT_TRUE(PerfSample::valid(sample.instructions));
        EXPECT_GT(sample.instructions, 0.0);
        EXPECT_GT(sample.ipc(), 0.0);
    } else {
        EXPECT_FALSE(sample.unavailable_reason.empty());
        EXPECT_FALSE(counters.unavailableReason().empty());
        EXPECT_FALSE(PerfSample::valid(sample.cycles));
        EXPECT_FALSE(PerfSample::valid(sample.instructions));
        EXPECT_FALSE(PerfSample::valid(sample.llc_misses));
        EXPECT_FALSE(PerfSample::valid(sample.branch_misses));
        // task-clock survives a missing PMU (see the next test).
        EXPECT_DOUBLE_EQ(sample.ipc(), -1.0);
    }
}

#if defined(__linux__)
/** True if this host lets a thread count a software event of its own. */
bool
softwareEventOpens(u64 config, bool user_only = true)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    attr.type = PERF_TYPE_SOFTWARE;
    attr.config = config;
    attr.disabled = 1;
    attr.exclude_kernel = user_only;
    attr.exclude_hv = 1;
    const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0UL);
    if (fd < 0) return false;
    close(static_cast<int>(fd));
    return true;
}

bool
softwareTaskClockOpens()
{
    return softwareEventOpens(PERF_COUNT_SW_TASK_CLOCK);
}

/**
 * Without cycles/instructions (no PMU, as in many VMs) the sample
 * stays unavailable with the hardware fields at -1 and the reason
 * kept, but task-clock is still measured wherever the software event
 * opens — for one thread and summed over a pool's ranks.
 */
TEST(PerfCounters, TaskClockSurvivesWithoutHardwareCounters)
{
    auto burn = [] {
        volatile double x = 1.0;
        for (int i = 0; i < 2'000'000; ++i) x = x * 1.0000001 + 0.5;
    };
    PerfCounters counters;
    if (counters.available()) {
        GTEST_SKIP() << "hardware counters open on this host";
    }
    counters.start();
    burn();
    const PerfSample sample = counters.stop();
    EXPECT_FALSE(sample.available);
    EXPECT_EQ(sample.unavailable_reason, counters.unavailableReason());
    EXPECT_FALSE(PerfSample::valid(sample.cycles));
    EXPECT_FALSE(PerfSample::valid(sample.instructions));
    EXPECT_FALSE(PerfSample::valid(sample.llc_misses));
    EXPECT_FALSE(PerfSample::valid(sample.branch_misses));

    ThreadPool pool(2);
    PooledCounters pooled(pool);
    pooled.start();
    pool.parallelFor(2, [&](u64) { burn(); }, 1);
    const PerfSample total = pooled.stopAggregate();
    EXPECT_FALSE(total.available);
    EXPECT_FALSE(PerfSample::valid(total.cycles));

    if (softwareTaskClockOpens()) {
        EXPECT_GT(sample.task_clock_seconds, 0.0);
        EXPECT_LT(sample.task_clock_seconds, 60.0);
        EXPECT_GT(total.task_clock_seconds, 0.0);
    } else {
        EXPECT_FALSE(PerfSample::valid(sample.task_clock_seconds));
    }
}
#endif

/**
 * The software-only group: without a PMU, page-faults and
 * context-switches are counted beside task-clock, for one thread and
 * summed over a pool's ranks. Touching fresh anonymous pages faults
 * each one in; sleeping switches the thread out.
 */
TEST(PerfCounters, SoftwareGroupCountsPageFaultsAndContextSwitches)
{
    PerfCounters counters;
    if (counters.available()) {
        GTEST_SKIP() << "hardware counters open on this host";
    }
    if (!softwareTaskClockOpens()) {
        GTEST_SKIP() << "no software perf events on this host";
    }
    constexpr size_t kPages = 256;
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    auto fault_and_sleep = [&] {
        void* mem = mmap(nullptr, kPages * page, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        ASSERT_NE(mem, MAP_FAILED);
        // No transparent huge pages: one fault per touched page.
        madvise(mem, kPages * page, MADV_NOHUGEPAGE);
        auto* bytes = static_cast<volatile char*>(mem);
        for (size_t p = 0; p < kPages; ++p) bytes[p * page] = 1;
        munmap(mem, kPages * page);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
    counters.start();
    fault_and_sleep();
    const PerfSample sample = counters.stop();
    EXPECT_FALSE(sample.available);
    EXPECT_GT(sample.task_clock_seconds, 0.0);
    if (softwareEventOpens(PERF_COUNT_SW_PAGE_FAULTS)) {
        EXPECT_GE(sample.page_faults, static_cast<double>(kPages));
        EXPECT_LT(sample.page_faults, 100.0 * kPages);
    } else {
        EXPECT_FALSE(PerfSample::valid(sample.page_faults));
    }
    if (softwareEventOpens(PERF_COUNT_SW_CONTEXT_SWITCHES, false)) {
        EXPECT_GE(sample.context_switches, 1.0);
    } else {
        EXPECT_FALSE(PerfSample::valid(sample.context_switches));
    }

    ThreadPool pool(2);
    PooledCounters pooled(pool);
    pooled.start();
    pool.parallelFor(2, [&](u64) { fault_and_sleep(); }, 1);
    const PerfSample total = pooled.stopAggregate();
    EXPECT_FALSE(total.available);
    if (PerfSample::valid(sample.page_faults)) {
        EXPECT_GE(total.page_faults, 2.0 * kPages);
    }
    if (PerfSample::valid(sample.context_switches)) {
        EXPECT_GE(total.context_switches, 2.0);
    }
}

TEST(PerfCounters, RestartableAcrossRuns)
{
    PerfCounters counters;
    counters.start();
    const PerfSample first = counters.stop();
    counters.start();
    const PerfSample second = counters.stop();
    EXPECT_EQ(first.available, second.available);
}

} // namespace
} // namespace gb::metrics
