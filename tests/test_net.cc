/**
 * @file
 * Tests for gb::net: HOST:PORT parsing, the wire-protocol
 * parser/formatters, and the Server/Connection stack end-to-end over
 * 127.0.0.1 — submit/wait/cancel/stats/drain round-trips, strict
 * priority dispatch order, queue-full load shedding, WAIT timeouts,
 * the session limit, joining ended sessions, and the line client.
 *
 * Every server test drives a real TCP connection against a Scheduler
 * built on gated fake kernels (as in test_serve.cc), so ordering
 * assertions are deterministic: a gate is only released once the
 * queue holds exactly the jobs the test wants ordered.
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/net.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/job.h"
#include "serve/scheduler.h"

namespace gb {
namespace {

using net::Connection;
using net::HostPort;
using net::Listener;
using net::Request;
using net::Server;
using net::ServerConfig;
using net::Verb;
using serve::JobStatus;
using serve::Scheduler;

// ---------------------------------------------------------------------
// Address parsing

TEST(NetHostPort, ParsesHostAndPort)
{
    const HostPort hp = net::parseHostPort("127.0.0.1:8080");
    EXPECT_EQ(hp.host, "127.0.0.1");
    EXPECT_EQ(hp.port, 8080);
    EXPECT_EQ(net::parseHostPort("0.0.0.0:1").port, 1);
    EXPECT_EQ(net::parseHostPort("10.0.0.1:65535").port, 65535);
}

TEST(NetHostPort, RejectsMalformedSpecs)
{
    EXPECT_THROW(net::parseHostPort(""), InputError);
    EXPECT_THROW(net::parseHostPort("127.0.0.1"), InputError);
    EXPECT_THROW(net::parseHostPort(":8080"), InputError);
    EXPECT_THROW(net::parseHostPort("127.0.0.1:"), InputError);
    EXPECT_THROW(net::parseHostPort("127.0.0.1:http"), InputError);
    EXPECT_THROW(net::parseHostPort("127.0.0.1:70000"), InputError);
    EXPECT_THROW(net::parseHostPort("127.0.0.1:80x"), InputError);
    EXPECT_THROW(net::parseHostPort("127.0.0.1:+80"), InputError);
    EXPECT_THROW(net::parseHostPort("127.0.0.1: 80"), InputError);
}

// ---------------------------------------------------------------------
// Protocol parsing and formatting

TEST(NetProtocol, ParsesEveryVerb)
{
    const Request submit =
        net::parseRequest("SUBMIT fmi size=tiny priority=high");
    EXPECT_EQ(submit.verb, Verb::kSubmit);
    EXPECT_EQ(submit.job_line, "fmi size=tiny priority=high");

    const Request status = net::parseRequest("STATUS 7");
    EXPECT_EQ(status.verb, Verb::kStatus);
    EXPECT_EQ(status.id, 7u);

    const Request wait = net::parseRequest("WAIT 3 1.5");
    EXPECT_EQ(wait.verb, Verb::kWait);
    EXPECT_EQ(wait.id, 3u);
    EXPECT_DOUBLE_EQ(wait.timeout, 1.5);

    const Request wait_forever = net::parseRequest("WAIT 3");
    EXPECT_LT(wait_forever.timeout, 0.0); // absent = block

    EXPECT_EQ(net::parseRequest("CANCEL 9").verb, Verb::kCancel);
    EXPECT_EQ(net::parseRequest("STATS").verb, Verb::kStats);
    EXPECT_EQ(net::parseRequest("DRAIN").verb, Verb::kDrain);
}

TEST(NetProtocol, RejectsMalformedRequests)
{
    EXPECT_THROW(net::parseRequest(""), InputError);
    EXPECT_THROW(net::parseRequest("FROBNICATE 1"), InputError);
    EXPECT_THROW(net::parseRequest("SUBMIT"), InputError);
    EXPECT_THROW(net::parseRequest("STATUS"), InputError);
    EXPECT_THROW(net::parseRequest("STATUS abc"), InputError);
    EXPECT_THROW(net::parseRequest("STATUS 0"), InputError);
    EXPECT_THROW(net::parseRequest("STATUS -3"), InputError);
    EXPECT_THROW(net::parseRequest("STATUS 1 2"), InputError);
    EXPECT_THROW(net::parseRequest("WAIT 1 soon"), InputError);
    EXPECT_THROW(net::parseRequest("WAIT 1 5x"), InputError);
    EXPECT_THROW(net::parseRequest("WAIT 1 -3"), InputError);
    EXPECT_THROW(net::parseRequest("WAIT 1 nan"), InputError);
    EXPECT_THROW(net::parseRequest("WAIT 1 inf"), InputError);
    EXPECT_THROW(net::parseRequest("WAIT 1 86401"), InputError);
    EXPECT_THROW(net::parseRequest("STATS now"), InputError);
    EXPECT_THROW(net::parseRequest("DRAIN 1"), InputError);
}

TEST(NetProtocol, ErrReplyStaysOneLine)
{
    EXPECT_EQ(net::errReply("boom"), "ERR boom");
    const std::string reply = net::errReply("line1\nline2\r\n");
    EXPECT_EQ(reply.find('\n'), std::string::npos);
    EXPECT_EQ(reply.find('\r'), std::string::npos);
}

TEST(NetProtocol, StatusPayloadShapes)
{
    serve::JobMetrics metrics;
    metrics.tasks = 42;
    metrics.repeats_completed = 3;
    metrics.pool_threads = 2;
    const std::string done =
        net::statusPayload(5, JobStatus::kDone, metrics, "");
    EXPECT_EQ(done.rfind("5 done", 0), 0u) << done;
    EXPECT_NE(done.find("tasks=42"), std::string::npos) << done;
    EXPECT_NE(done.find("repeats=3"), std::string::npos) << done;

    const std::string failed = net::statusPayload(
        6, JobStatus::kFailed, metrics, "kernel exploded\nbadly");
    EXPECT_EQ(failed.rfind("6 failed", 0), 0u) << failed;
    EXPECT_NE(failed.find("kernel exploded"), std::string::npos);
    EXPECT_EQ(failed.find('\n'), std::string::npos) << failed;

    const std::string queued =
        net::statusPayload(7, JobStatus::kQueued, metrics, "");
    EXPECT_EQ(queued, "7 queued");
}

TEST(NetProtocol, StatsPayloadPinsFieldOrder)
{
    Scheduler::Stats stats;
    stats.workers = 2;
    stats.queue_depth = 8;
    stats.submitted = 5;
    stats.rejected = 1;
    stats.completed = 3;
    stats.failed = 1;
    stats.cancelled = 0;
    stats.queued = 0;
    stats.running = 0;
    stats.peak_workers_busy = 2;
    stats.latency.jobs = 4;
    stats.latency.queue_wait = {0.5, 1.25, 2.0};
    stats.latency.prepare = {1.0, 2.0, 3.0};
    stats.latency.run = {4.0, 5.0, 6.0};
    stats.latency.end_to_end = {5.5, 7.0, 9.0};
    // The legacy prefix is frozen and the latency snapshot is
    // append-only: new fields may only ever be added at the end.
    EXPECT_EQ(net::statsPayload(stats),
              "workers=2 queue_depth=8 submitted=5 rejected=1 "
              "completed=3 failed=1 cancelled=0 queued=0 running=0 "
              "peak_workers_busy=2 lat_jobs=4 "
              "queue_wait_p50_ms=0.500 queue_wait_p95_ms=1.250 "
              "queue_wait_p99_ms=2.000 "
              "prepare_p50_ms=1.000 prepare_p95_ms=2.000 "
              "prepare_p99_ms=3.000 "
              "run_p50_ms=4.000 run_p95_ms=5.000 run_p99_ms=6.000 "
              "e2e_p50_ms=5.500 e2e_p95_ms=7.000 e2e_p99_ms=9.000");
}

// ---------------------------------------------------------------------
// Socket primitives

TEST(NetListener, EphemeralPortAndEcho)
{
    Listener listener("127.0.0.1", 0);
    ASSERT_GT(listener.port(), 0);
    std::thread echo([&] {
        auto conn = listener.accept();
        ASSERT_TRUE(conn.has_value());
        std::string line;
        while (conn->readLine(&line)) {
            conn->writeLine("echo: " + line);
        }
    });
    Connection client =
        Connection::connectTo("127.0.0.1", listener.port(), 1.0);
    client.writeLine("hello");
    std::string reply;
    ASSERT_TRUE(client.readLine(&reply));
    EXPECT_EQ(reply, "echo: hello");
    client.close(); // orderly EOF ends the echo loop
    echo.join();
}

TEST(NetListener, CloseUnblocksAccept)
{
    Listener listener("127.0.0.1", 0);
    std::thread acceptor([&] {
        EXPECT_FALSE(listener.accept().has_value());
    });
    // Give accept() a moment to block, then close from this thread.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    listener.close();
    acceptor.join();
}

TEST(NetConnection, ReadTimeoutReturnsFalse)
{
    Listener listener("127.0.0.1", 0);
    std::thread silent([&] {
        auto conn = listener.accept();
        ASSERT_TRUE(conn.has_value());
        // Hold the connection open, send nothing.
        std::string line;
        conn->readLine(&line);
    });
    Connection client =
        Connection::connectTo("127.0.0.1", listener.port(), 1.0);
    client.setReadTimeout(0.05);
    std::string line;
    EXPECT_FALSE(client.readLine(&line)); // timed out, no data
    client.close();
    silent.join();
}

TEST(NetConnection, ConnectToDeadPortThrows)
{
    // Bind-then-close yields a port nobody listens on.
    u16 dead_port = 0;
    { Listener listener("127.0.0.1", 0); dead_port = listener.port(); }
    EXPECT_THROW(Connection::connectTo("127.0.0.1", dead_port, 0.0),
                 net::NetError);
    EXPECT_THROW(Connection::connectTo("not-an-ip", 1, 0.0),
                 net::NetError);
}

// ---------------------------------------------------------------------
// Gated fake kernels (same pattern as test_serve.cc)

struct FakeControl
{
    std::mutex m;
    std::condition_variable cv;
    std::vector<std::string> started;
    std::set<std::string> gated;

    void
    recordStart(const std::string& name)
    {
        std::unique_lock<std::mutex> lock(m);
        started.push_back(name);
        cv.notify_all();
        cv.wait(lock, [&] { return gated.count(name) == 0; });
    }

    void
    release(const std::string& name)
    {
        std::lock_guard<std::mutex> lock(m);
        gated.erase(name);
        cv.notify_all();
    }

    void
    awaitStart(const std::string& name)
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] {
            return std::find(started.begin(), started.end(), name) !=
                   started.end();
        });
    }

    std::vector<std::string>
    startOrder()
    {
        std::lock_guard<std::mutex> lock(m);
        return started;
    }
};

class FakeKernel : public Benchmark
{
  public:
    FakeKernel(std::string name, FakeControl* control)
        : control_(control)
    {
        info_.name = std::move(name);
    }

    const Info& info() const override { return info_; }
    void prepare(DatasetSize) override {}

    u64
    run(ThreadPool&) override
    {
        control_->recordStart(info_.name);
        if (info_.name.rfind("boom", 0) == 0) {
            throw InputError("kernel exploded: " + info_.name);
        }
        return 1;
    }

    u64 characterize(CharProbe&) override { return 0; }
    std::vector<u64> taskWork() override { return {1}; }

  private:
    Info info_;
    FakeControl* control_;
};

Scheduler::Config
fakeConfig(FakeControl* control, std::vector<std::string> names,
           unsigned workers, size_t queue_depth)
{
    Scheduler::Config config;
    config.workers = workers;
    config.queue_depth = queue_depth;
    config.kernels = names;
    config.kernel_factory = [control](const std::string& name) {
        return std::make_unique<FakeKernel>(name, control);
    };
    return config;
}

/** Scheduler + Server on an ephemeral loopback port. */
struct TestServer
{
    FakeControl control;
    Scheduler scheduler;
    Server server;

    TestServer(std::vector<std::string> kernels, unsigned workers,
               size_t queue_depth, ServerConfig server_config = {})
        : scheduler(fakeConfig(&control, std::move(kernels), workers,
                               queue_depth)),
          server(&scheduler, std::move(server_config))
    {
    }

    Connection
    connect()
    {
        return Connection::connectTo("127.0.0.1", server.port(), 1.0);
    }
};

std::string
roundTrip(Connection& conn, const std::string& request)
{
    conn.writeLine(request);
    std::string reply;
    EXPECT_TRUE(conn.readLine(&reply)) << "no reply to " << request;
    return reply;
}

// ---------------------------------------------------------------------
// Server end-to-end

TEST(NetServer, SubmitStatusWaitRoundTrip)
{
    TestServer ts({"a"}, 1, 8);
    Connection conn = ts.connect();
    const std::string submit = roundTrip(conn, "SUBMIT a");
    EXPECT_EQ(submit.rfind("OK 1 ", 0), 0u) << submit;
    const std::string wait = roundTrip(conn, "WAIT 1");
    EXPECT_EQ(wait.rfind("OK 1 done", 0), 0u) << wait;
    EXPECT_NE(wait.find("tasks=1"), std::string::npos) << wait;
    const std::string status = roundTrip(conn, "STATUS 1");
    EXPECT_EQ(status.rfind("OK 1 done", 0), 0u) << status;
    const std::string stats = roundTrip(conn, "STATS");
    EXPECT_EQ(stats.rfind("OK workers=1", 0), 0u) << stats;
    EXPECT_NE(stats.find("submitted=1"), std::string::npos) << stats;
}

TEST(NetServer, StatsReplyKeepsLegacyFieldsAndAppendsLatency)
{
    TestServer ts({"a"}, 1, 8);
    Connection conn = ts.connect();
    roundTrip(conn, "SUBMIT a");
    roundTrip(conn, "WAIT 1");
    const std::string stats = roundTrip(conn, "STATS");
    EXPECT_EQ(stats.rfind("OK workers=1", 0), 0u) << stats;
    // The legacy counters stay where parsers expect them...
    for (const char* key :
         {" queue_depth=", " submitted=1", " rejected=", " completed=1",
          " failed=", " cancelled=", " queued=", " running=",
          " peak_workers_busy="}) {
        EXPECT_NE(stats.find(key), std::string::npos)
            << key << " missing in: " << stats;
    }
    // ...and the latency snapshot is appended after all of them.
    EXPECT_NE(stats.find(" lat_jobs=1"), std::string::npos) << stats;
    EXPECT_GT(stats.find(" lat_jobs="),
              stats.find(" peak_workers_busy="));
    for (const std::string prefix :
         {"queue_wait", "prepare", "run", "e2e"}) {
        for (const char* suffix : {"_p50_ms=", "_p95_ms=", "_p99_ms="}) {
            EXPECT_NE(stats.find(' ' + prefix + suffix),
                      std::string::npos)
                << prefix << suffix << " missing in: " << stats;
        }
    }
}

TEST(NetServer, DispatchesStrictPriorityOrderOverTheWire)
{
    // The acceptance scenario: one worker pinned by a gated job, then
    // a batch, a normal and a high job submitted over TCP in that
    // order must dispatch high -> normal -> batch.
    TestServer ts({"R", "B", "N", "H"}, 1, 8);
    ts.control.gated.insert("R");
    Connection conn = ts.connect();
    EXPECT_EQ(roundTrip(conn, "SUBMIT R").rfind("OK 1 ", 0), 0u);
    ts.control.awaitStart("R"); // worker busy; queue is empty
    EXPECT_EQ(roundTrip(conn, "SUBMIT B priority=batch")
                  .rfind("OK 2 ", 0),
              0u);
    EXPECT_EQ(roundTrip(conn, "SUBMIT N priority=normal")
                  .rfind("OK 3 ", 0),
              0u);
    EXPECT_EQ(roundTrip(conn, "SUBMIT H priority=high")
                  .rfind("OK 4 ", 0),
              0u);
    ts.control.release("R");
    for (int id = 1; id <= 4; ++id) {
        const std::string reply =
            roundTrip(conn, "WAIT " + std::to_string(id));
        EXPECT_EQ(reply.rfind("OK", 0), 0u) << reply;
    }
    EXPECT_EQ(ts.control.startOrder(),
              (std::vector<std::string>{"R", "H", "N", "B"}));
}

TEST(NetServer, QueueFullBecomesErrNotAHang)
{
    TestServer ts({"gate", "a"}, 1, 1);
    ts.control.gated.insert("gate");
    Connection conn = ts.connect();
    EXPECT_EQ(roundTrip(conn, "SUBMIT gate").rfind("OK 1 ", 0), 0u);
    ts.control.awaitStart("gate");
    EXPECT_EQ(roundTrip(conn, "SUBMIT a").rfind("OK 2 ", 0), 0u);
    const std::string reply = roundTrip(conn, "SUBMIT a");
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
    EXPECT_NE(reply.find("queue full"), std::string::npos) << reply;
    ts.control.release("gate");
}

TEST(NetServer, SubmitParseErrorsBecomeErr)
{
    TestServer ts({"a"}, 1, 4);
    Connection conn = ts.connect();
    const std::string unknown = roundTrip(conn, "SUBMIT nosuch");
    EXPECT_EQ(unknown.rfind("ERR ", 0), 0u) << unknown;
    EXPECT_NE(unknown.find("unknown kernel"), std::string::npos);
    const std::string bad_key =
        roundTrip(conn, "SUBMIT a colour=blue");
    EXPECT_EQ(bad_key.rfind("ERR ", 0), 0u) << bad_key;
    const std::string garbage = roundTrip(conn, "FROBNICATE");
    EXPECT_EQ(garbage.rfind("ERR ", 0), 0u) << garbage;
    // The session survives every ERR: a good request still works.
    EXPECT_EQ(roundTrip(conn, "SUBMIT a").rfind("OK 1 ", 0), 0u);
}

TEST(NetServer, WaitTimesOutWithStatus)
{
    TestServer ts({"gate"}, 1, 4);
    ts.control.gated.insert("gate");
    Connection conn = ts.connect();
    EXPECT_EQ(roundTrip(conn, "SUBMIT gate").rfind("OK 1 ", 0), 0u);
    ts.control.awaitStart("gate");
    const std::string reply = roundTrip(conn, "WAIT 1 0.05");
    EXPECT_EQ(reply, "TIMEOUT 1 running") << reply;
    ts.control.release("gate");
    EXPECT_EQ(roundTrip(conn, "WAIT 1").rfind("OK 1 done", 0), 0u);
}

TEST(NetServer, CancelQueuedButNotRunning)
{
    TestServer ts({"gate", "a"}, 1, 8);
    ts.control.gated.insert("gate");
    Connection conn = ts.connect();
    EXPECT_EQ(roundTrip(conn, "SUBMIT gate").rfind("OK 1 ", 0), 0u);
    ts.control.awaitStart("gate");
    EXPECT_EQ(roundTrip(conn, "SUBMIT a").rfind("OK 2 ", 0), 0u);
    EXPECT_EQ(roundTrip(conn, "CANCEL 2"), "OK 2 cancelled");
    const std::string running = roundTrip(conn, "CANCEL 1");
    EXPECT_EQ(running.rfind("ERR ", 0), 0u) << running;
    EXPECT_NE(running.find("not cancellable"), std::string::npos);
    const std::string unknown = roundTrip(conn, "CANCEL 99");
    EXPECT_NE(unknown.find("unknown job id"), std::string::npos);
    ts.control.release("gate");
}

TEST(NetServer, JobIdsAreSharedAcrossConnections)
{
    TestServer ts({"a"}, 1, 8);
    Connection submitter = ts.connect();
    EXPECT_EQ(roundTrip(submitter, "SUBMIT a").rfind("OK 1 ", 0), 0u);
    Connection watcher = ts.connect();
    const std::string reply = roundTrip(watcher, "WAIT 1");
    EXPECT_EQ(reply.rfind("OK 1 done", 0), 0u) << reply;
}

TEST(NetServer, DrainRunsEverythingAndFlagsShutdown)
{
    TestServer ts({"a"}, 2, 8);
    Connection conn = ts.connect();
    for (int i = 1; i <= 4; ++i) {
        EXPECT_EQ(roundTrip(conn, "SUBMIT a")
                      .rfind("OK " + std::to_string(i), 0),
                  0u);
    }
    EXPECT_EQ(roundTrip(conn, "DRAIN"), "OK drained");
    EXPECT_TRUE(ts.server.waitShutdownRequestedFor(1.0));
    // Admissions are closed after a drain.
    const std::string late = roundTrip(conn, "SUBMIT a");
    EXPECT_EQ(late.rfind("ERR ", 0), 0u) << late;
    ts.server.stop();
    const auto jobs = ts.server.jobs();
    ASSERT_EQ(jobs.size(), 4u);
    for (const auto& [id, handle] : jobs) {
        EXPECT_EQ(handle.status(), JobStatus::kDone) << id;
    }
}

TEST(NetServer, SessionLimitShedsConnections)
{
    ServerConfig config;
    config.max_sessions = 1;
    TestServer ts({"a"}, 1, 4, config);
    Connection first = ts.connect();
    // The first session must be live before the second connects.
    EXPECT_EQ(roundTrip(first, "STATS").rfind("OK ", 0), 0u);
    Connection second = ts.connect();
    std::string reply;
    ASSERT_TRUE(second.readLine(&reply));
    EXPECT_EQ(reply.rfind("ERR server busy", 0), 0u) << reply;
    // The shed connection is closed; the first still works.
    EXPECT_FALSE(second.readLine(&reply));
    EXPECT_EQ(roundTrip(first, "SUBMIT a").rfind("OK 1 ", 0), 0u);
}

TEST(NetServer, OverlongLineGetsErrAndClosesSession)
{
    TestServer ts({"a"}, 1, 4);
    // A raw socket, so the flood carries no '\n' at all.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    Connection flooder(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ts.server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    // The sender stops at the first error: the server closes the
    // session once the limit is crossed, so the rest of the flood may
    // be refused (and a send blocked on full buffers fails then).
    std::thread sender([fd] {
        const std::string chunk(4096, 'x');
        for (size_t sent = 0; sent < 4 * net::kMaxLineBytes;
             sent += chunk.size()) {
            if (::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL) <
                0) {
                break;
            }
        }
    });
    sender.join();
    std::string reply;
    ASSERT_TRUE(flooder.readLine(&reply));
    EXPECT_EQ(reply, "ERR line too long");
    bool more = true;
    try {
        more = flooder.readLine(&reply);
    } catch (const net::NetError&) {
        more = false; // reset instead of FIN: unread flood bytes
    }
    EXPECT_FALSE(more) << "session stayed open after ERR: " << reply;
    // The server itself is unharmed: a fresh session is served.
    Connection second = ts.connect();
    EXPECT_EQ(roundTrip(second, "SUBMIT a").rfind("OK 1 ", 0), 0u);
}

TEST(NetConnection, ReadLineRejectsOverlongLine)
{
    Listener listener("127.0.0.1", 0);
    std::thread writer([&] {
        auto conn = listener.accept();
        ASSERT_TRUE(conn.has_value());
        conn->writeLine(std::string(net::kMaxLineBytes, 'a'));
        conn->writeLine(std::string(net::kMaxLineBytes + 1, 'b'));
    });
    Connection client =
        Connection::connectTo("127.0.0.1", listener.port(), 1.0);
    std::string line;
    ASSERT_TRUE(client.readLine(&line)); // exactly at the limit
    EXPECT_EQ(line.size(), net::kMaxLineBytes);
    EXPECT_THROW(client.readLine(&line), net::LineTooLongError);
    writer.join();
}

TEST(NetServer, StopUnblocksIdleSessions)
{
    auto ts = std::make_unique<TestServer>(
        std::vector<std::string>{"a"}, 1, 4);
    Connection conn = ts->connect();
    EXPECT_EQ(roundTrip(conn, "STATS").rfind("OK ", 0), 0u);
    // The session is blocked in readLine; stop() must wake and join
    // it without waiting for a read timeout.
    ts->server.stop();
    std::string line;
    EXPECT_FALSE(conn.readLine(&line)); // server went away
    ts.reset();
}

/** This process's virtual size in KiB (VmSize, /proc/self/status). */
u64
vmSizeKib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmSize:", 0) == 0) {
            return std::stoull(line.substr(7));
        }
    }
    return 0;
}

TEST(NetServer, EndedSessionsReleaseTheirThreads)
{
    TestServer ts({"a"}, 1, 4);
    auto oneSession = [&] {
        {
            Connection conn = ts.connect();
            EXPECT_EQ(roundTrip(conn, "STATS").rfind("OK ", 0), 0u);
        }
        // Let the session end before the next connection arrives.
        for (int i = 0; i < 2000 && ts.server.sessions() != 0; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        EXPECT_EQ(ts.server.sessions(), 0u);
    };
    // Warm up the allocator arenas and the thread-stack cache.
    for (int i = 0; i < 4; ++i) oneSession();
    const u64 before_kib = vmSizeKib();
    ASSERT_GT(before_kib, 0u);
    for (int i = 0; i < 64; ++i) oneSession();
    // An ended session thread that is never joined keeps its stack
    // (8 MiB by default) mapped: 64 of them would add ~512 MiB.
    const i64 growth_kib = static_cast<i64>(vmSizeKib()) -
                           static_cast<i64>(before_kib);
    EXPECT_LT(growth_kib, 64 * 1024);
}

// ---------------------------------------------------------------------
// Line client

TEST(NetClient, RunsAJobFileEndToEnd)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "gb_net_client_jobs.txt";
    {
        std::ofstream out(path);
        out << "# client test jobs\n"
               "a priority=high\n"
               "a priority=batch\n"
               "\n"
               "a\n";
    }
    TestServer ts({"a"}, 2, 8);
    net::ClientOptions options;
    options.host = "127.0.0.1";
    options.port = ts.server.port();
    options.jobs_path = path.string();
    options.drain = true;
    std::ostringstream out;
    EXPECT_EQ(net::runClient(options, out), 0) << out.str();
    const std::string log = out.str();
    EXPECT_NE(log.find("OK 1 "), std::string::npos) << log;
    EXPECT_NE(log.find("OK 3 done"), std::string::npos) << log;
    EXPECT_NE(log.find("OK drained"), std::string::npos) << log;
    EXPECT_TRUE(ts.server.waitShutdownRequestedFor(1.0));
    std::filesystem::remove(path);
}

TEST(NetClient, ReportsFailuresInExitCode)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "gb_net_client_bad_jobs.txt";
    {
        std::ofstream out(path);
        out << "boom\n" // fails at run time
               "a\n";
    }
    TestServer ts({"boom", "a"}, 1, 8);
    net::ClientOptions options;
    options.host = "127.0.0.1";
    options.port = ts.server.port();
    options.jobs_path = path.string();
    std::ostringstream out;
    EXPECT_EQ(net::runClient(options, out), 1) << out.str();
    EXPECT_NE(out.str().find("OK 1 failed"), std::string::npos)
        << out.str();
    std::filesystem::remove(path);
}

} // namespace
} // namespace gb
