/**
 * @file
 * Unit tests for the metrics module: JSON rendering primitives, the
 * MetricsSink schema contract (gb-metrics-v1), table mirroring, and
 * the PerfCounters degradation contract.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "metrics/metrics_sink.h"
#include "metrics/perf_counters.h"
#include "util/json.h"
#include "util/table.h"

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
        EXPECT_FALSE(PerfSample::valid(sample.task_clock_seconds));
        EXPECT_DOUBLE_EQ(sample.ipc(), -1.0);
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
