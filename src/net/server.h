/**
 * @file
 * gb::net::Server — the TCP front-end over one gb::serve::Scheduler.
 *
 * Threading model: one accept loop thread plus one session thread
 * per live connection, bounded by `max_sessions` (a connection over
 * the limit is answered "ERR server busy" and closed — admission
 * control at the transport layer, mirroring the scheduler's bounded
 * queue). Sessions speak the newline protocol in net/protocol.h; a
 * scheduler rejection (queue full, draining) becomes an ERR reply,
 * never a stalled client.
 *
 * Job ids are the scheduler-assigned admission ids (1-based,
 * monotonic) and shared across connections: any client may
 * STATUS/WAIT/CANCEL any id, and the id on the wire matches the job's
 * id in a gb::trace timeline and in serve_job rows.
 *
 * A DRAIN verb stops admissions, runs the scheduler dry (the session
 * thread replies "OK drained" once everything finished) and marks
 * the server as shutdown-requested; the owner observes that via
 * waitShutdownRequestedFor() and then calls stop(). The accept loop
 * joins the threads of sessions that ended before each new
 * connection, so a long-running server holds no stacks of closed
 * sessions. stop() closes the listener, wakes every session (wake
 * pipe — no fd races, no reliance on read timeouts) and joins all
 * threads.
 */
#ifndef GB_NET_SERVER_H
#define GB_NET_SERVER_H

#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/net.h"
#include "serve/job.h"
#include "serve/scheduler.h"

namespace gb::net {

struct ServerConfig
{
    std::string host = "127.0.0.1";
    u16 port = 0; ///< 0 = ephemeral; Server::port() tells
    /** Live-connection limit; the overflow gets "ERR server busy". */
    unsigned max_sessions = 32;
    /** Per-connection idle read timeout; <= 0 disables. */
    double read_timeout_seconds = 300.0;
};

class Server
{
  public:
    /** Binds and starts the accept loop; throws NetError on bind
     *  failure. `scheduler` must outlive the server. */
    Server(serve::Scheduler* scheduler, ServerConfig config);

    /** stop(). */
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** Resolved listening port. */
    u16 port() const { return listener_.port(); }

    /**
     * Block until a client issued DRAIN (after the scheduler drained)
     * or requestShutdown() was called, or `seconds` passed — the
     * building block for loops that also poll a signal flag. Returns
     * at once if shutdown was already requested.
     * @return true when shutdown was requested.
     */
    bool waitShutdownRequestedFor(double seconds);

    /** Mark shutdown requested (e.g. from a SIGTERM-polling loop). */
    void requestShutdown();

    /** Close the listener, wake + join every session. Idempotent. */
    void stop();

    /** Snapshot of (id, handle) for every job submitted over the
     *  wire, in id order — the CLI's final report walks this. */
    std::vector<std::pair<u64, serve::JobHandle>> jobs() const;

    /** Live session count (tests/observability). */
    unsigned sessions() const;

  private:
    void acceptLoop();
    /** Join the threads of sessions that have ended. */
    void joinEndedSessions();
    void session(Connection conn);
    /** One request line -> one reply line. Never throws. */
    std::string handleLine(const std::string& line);
    std::string handleSubmit(const std::string& job_line);
    std::string handleWait(u64 id, double timeout);

    serve::Scheduler* scheduler_;
    ServerConfig config_;
    Listener listener_;

    mutable std::mutex jobs_mutex_;
    /** Keyed by the scheduler's admission id (JobHandle::id()). */
    std::unordered_map<u64, serve::JobHandle> jobs_;

    mutable std::mutex sessions_mutex_;
    std::vector<std::thread> session_threads_;
    /** Ids of session threads that returned and await a join. */
    std::vector<std::thread::id> ended_sessions_;
    unsigned live_sessions_ = 0;

    std::mutex shutdown_mutex_;
    std::condition_variable shutdown_cv_;
    bool shutdown_requested_ = false;
    std::atomic<bool> stopping_{false};
    /** Sessions poll this pipe's read end while blocked on a socket
     *  read so stop() can wake them without touching their fds. */
    int session_wake_[2] = {-1, -1};

    std::thread accept_thread_;
};

} // namespace gb::net

#endif // GB_NET_SERVER_H
