#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unistd.h>

#include "net/protocol.h"
#include "trace/trace.h"

namespace gb::net {

namespace {

using Clock = std::chrono::steady_clock;

/** WAIT blocks in slices so a stopping server can interrupt it. */
constexpr double kWaitSliceSeconds = 0.05;

} // namespace

Server::Server(serve::Scheduler* scheduler, ServerConfig config)
    : scheduler_(scheduler),
      config_(std::move(config)),
      listener_(config_.host, config_.port)
{
    if (::pipe(session_wake_) < 0) {
        throw NetError(std::string("pipe: ") + std::strerror(errno));
    }
    accept_thread_ = std::thread([this] { acceptLoop(); });
}

Server::~Server()
{
    stop();
    if (session_wake_[0] >= 0) ::close(session_wake_[0]);
    if (session_wake_[1] >= 0) ::close(session_wake_[1]);
}

void
Server::acceptLoop()
{
    while (auto conn = listener_.accept()) {
        if (stopping_.load(std::memory_order_acquire)) break;
        joinEndedSessions();
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        if (live_sessions_ >= config_.max_sessions) {
            // Transport-level load shedding: tell the client why
            // instead of letting the connection sit unserved.
            try {
                conn->writeLine(errReply(
                    "server busy (" +
                    std::to_string(config_.max_sessions) +
                    " sessions)"));
            } catch (const NetError&) {
                // Peer already gone; nothing to shed.
            }
            continue;
        }
        ++live_sessions_;
        session_threads_.emplace_back(
            [this, c = std::move(*conn)]() mutable {
                session(std::move(c));
                std::lock_guard<std::mutex> inner(sessions_mutex_);
                --live_sessions_;
                ended_sessions_.push_back(std::this_thread::get_id());
            });
    }
}

void
Server::joinEndedSessions()
{
    // An ended thread keeps its stack mapped until it is joined. The
    // accept loop registers each thread before it can report its end.
    std::vector<std::thread> ended;
    {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        for (const std::thread::id id : ended_sessions_) {
            const auto it = std::find_if(
                session_threads_.begin(), session_threads_.end(),
                [&](const std::thread& t) { return t.get_id() == id; });
            ended.push_back(std::move(*it));
            session_threads_.erase(it);
        }
        ended_sessions_.clear();
    }
    for (auto& thread : ended) thread.join();
}

void
Server::session(Connection conn)
{
    GB_TRACE_SPAN(trace::Category::kNet, "net:session");
    conn.setReadTimeout(config_.read_timeout_seconds);
    std::string line;
    try {
        while (!stopping_.load(std::memory_order_acquire) &&
               conn.readLine(&line, session_wake_[0])) {
            conn.writeLine(handleLine(line));
        }
    } catch (const LineTooLongError& e) {
        // The oversized line is not parsed; say why, then end the
        // session (the rest of the stream cannot be re-framed).
        try {
            conn.writeLine(errReply(e.what()));
        } catch (const NetError&) {
            // Peer already gone.
        }
    } catch (const NetError&) {
        // Peer reset mid-request/reply; the session just ends.
    }
}

std::string
Server::handleLine(const std::string& line)
{
    Request request;
    try {
        request = parseRequest(line);
    } catch (const std::exception& e) {
        return errReply(e.what());
    }
    // One span per request, named after the verb ("net:SUBMIT");
    // interned from a static set of six names, so no per-request
    // registry growth. The target job id (0 for SUBMIT/STATS/DRAIN)
    // rides in the arg.
    trace::Span request_span(
        trace::enabled()
            ? trace::internName(std::string("net:") +
                                verbName(request.verb))
            : 0u,
        trace::Category::kNet, request.id);
    try {
        switch (request.verb) {
          case Verb::kSubmit:
            return handleSubmit(request.job_line);
          case Verb::kStatus: {
            serve::JobHandle* handle = nullptr;
            std::lock_guard<std::mutex> lock(jobs_mutex_);
            const auto it = jobs_.find(request.id);
            if (it == jobs_.end()) {
                return errReply("unknown job id: " +
                                std::to_string(request.id));
            }
            handle = &it->second;
            return "OK " + statusPayload(request.id,
                                         handle->status(),
                                         handle->metrics(),
                                         handle->error());
          }
          case Verb::kWait:
            return handleWait(request.id, request.timeout);
          case Verb::kCancel: {
            std::optional<serve::JobHandle> handle;
            {
                std::lock_guard<std::mutex> lock(jobs_mutex_);
                const auto it = jobs_.find(request.id);
                if (it != jobs_.end()) handle = it->second;
            }
            if (!handle) {
                return errReply("unknown job id: " +
                                std::to_string(request.id));
            }
            if (handle->cancel()) {
                return "OK " + std::to_string(request.id) +
                       " cancelled";
            }
            return errReply(
                "job " + std::to_string(request.id) +
                " not cancellable (" +
                serve::jobStatusName(handle->status()) + ")");
          }
          case Verb::kStats:
            return "OK " + statsPayload(scheduler_->stats());
          case Verb::kDrain: {
            // Runs the scheduler dry on this session thread; the
            // reply tells the client every admitted job finished.
            scheduler_->drain();
            requestShutdown();
            return "OK drained";
          }
        }
        return errReply("unhandled verb");
    } catch (const std::exception& e) {
        return errReply(e.what());
    }
}

std::string
Server::handleSubmit(const std::string& job_line)
{
    // Parse and registry-validation failures propagate to
    // handleLine's catch and come back as ERR replies.
    serve::JobSpec spec = serve::parseJobLine(job_line);
    serve::JobHandle handle = scheduler_->submit(std::move(spec));
    if (handle.status() == serve::JobStatus::kRejected) {
        // Admission control: "ERR queue full (depth N)" / "ERR queue
        // closed (draining)" — the client is told immediately, never
        // stalled.
        return errReply(handle.error());
    }
    // The wire id IS the scheduler's admission id, so a client can
    // join its replies against trace timelines and serve_job rows.
    const u64 id = handle.id();
    {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        jobs_.emplace(id, handle);
    }
    return "OK " + std::to_string(id) + ' ' +
           serve::jobStatusName(handle.status());
}

std::string
Server::handleWait(u64 id, double timeout)
{
    std::optional<serve::JobHandle> handle;
    {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        const auto it = jobs_.find(id);
        if (it != jobs_.end()) handle = it->second;
    }
    if (!handle) {
        return errReply("unknown job id: " + std::to_string(id));
    }
    const auto start = Clock::now();
    for (;;) {
        double slice = kWaitSliceSeconds;
        if (timeout >= 0.0) {
            const double left =
                timeout - std::chrono::duration<double>(
                              Clock::now() - start)
                              .count();
            if (left <= 0.0) {
                return "TIMEOUT " + std::to_string(id) + ' ' +
                       serve::jobStatusName(handle->status());
            }
            slice = std::min(slice, left);
        }
        if (handle->waitFor(slice)) {
            return "OK " + statusPayload(id, handle->status(),
                                         handle->metrics(),
                                         handle->error());
        }
        if (stopping_.load(std::memory_order_acquire)) {
            return errReply("server stopping");
        }
    }
}

bool
Server::waitShutdownRequestedFor(double seconds)
{
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    return shutdown_cv_.wait_for(
        lock, std::chrono::duration<double>(seconds),
        [&] { return shutdown_requested_; });
}

void
Server::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(shutdown_mutex_);
        shutdown_requested_ = true;
    }
    shutdown_cv_.notify_all();
}

void
Server::stop()
{
    if (stopping_.exchange(true, std::memory_order_acq_rel)) {
        // Another stop() did (or is doing) the teardown; just make
        // sure waiters are released.
        requestShutdown();
        return;
    }
    requestShutdown();
    listener_.close();
    // One unread byte makes the wake pipe readable for every session
    // poll, now and for all future reads, so each blocked session
    // returns from readLine with false.
    const char byte = 0;
    ssize_t n;
    do {
        n = ::write(session_wake_[1], &byte, 1);
    } while (n < 0 && errno == EINTR);
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::thread> sessions;
    {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        sessions.swap(session_threads_);
        ended_sessions_.clear();
    }
    for (auto& thread : sessions) {
        if (thread.joinable()) thread.join();
    }
}

std::vector<std::pair<u64, serve::JobHandle>>
Server::jobs() const
{
    std::vector<std::pair<u64, serve::JobHandle>> out;
    {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        out.reserve(jobs_.size());
        for (const auto& [id, handle] : jobs_) {
            out.emplace_back(id, handle);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) {
                  return a.first < b.first;
              });
    return out;
}

unsigned
Server::sessions() const
{
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    return live_sessions_;
}

} // namespace gb::net
