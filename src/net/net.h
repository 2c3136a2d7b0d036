/**
 * @file
 * gb::net — blocking-socket primitives for the serving front-end.
 *
 * A deliberately small POSIX layer: `Listener` (bind/listen/accept
 * over TCP with SO_REUSEADDR) and `Connection` (a buffered,
 * newline-framed byte stream). Every syscall is wrapped EINTR-safe;
 * blocking reads and accepts multiplex over an internal wake pipe so
 * close() from another thread unblocks them deterministically instead
 * of relying on fd-close races. Read timeouts are implemented with
 * poll(), not SO_RCVTIMEO, so a timeout, a wake and readable data are
 * distinguishable outcomes.
 *
 * Failures at this layer (refused connections, resets, timeouts on
 * writes) throw NetError; orderly peer shutdown is not an error —
 * readLine() just returns false.
 */
#ifndef GB_NET_NET_H
#define GB_NET_NET_H

#include <atomic>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/common.h"

namespace gb::net {

/** Error thrown for socket-layer failures (connect, send, accept). */
class NetError : public std::runtime_error
{
  public:
    explicit NetError(const std::string& what)
        : std::runtime_error(what) {}
};

/** Longest line readLine() accepts, terminator excluded. */
inline constexpr size_t kMaxLineBytes = 64 * 1024;

/** Thrown by readLine() when a line exceeds kMaxLineBytes. */
class LineTooLongError : public NetError
{
  public:
    LineTooLongError() : NetError("line too long") {}
};

/**
 * One connected TCP stream, move-only, closing on destruction.
 * readLine() buffers internally and hands out one '\n'-terminated
 * line at a time (terminator stripped, trailing '\r' tolerated).
 */
class Connection
{
  public:
    /** Wrap an already-connected fd (Listener::accept). */
    explicit Connection(int fd) : fd_(fd) {}

    /**
     * Client side: connect to host:port. Retries for up to
     * `retry_seconds` on ECONNREFUSED (covers the start-up race
     * against a server launched moments ago); throws NetError when
     * the deadline passes.
     */
    static Connection connectTo(const std::string& host, u16 port,
                                double retry_seconds = 0.0);

    ~Connection();
    Connection(Connection&& other) noexcept;
    Connection& operator=(Connection&& other) noexcept;
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /**
     * Read one line. Returns false on orderly EOF, on read timeout,
     * or when `wake_fd` (if >= 0) becomes readable — the caller
     * treats all three as "this session is over". Throws NetError on
     * a socket error, and LineTooLongError once more than
     * kMaxLineBytes arrive without a terminator, so a peer that never
     * sends '\n' cannot grow the buffer without bound.
     */
    bool readLine(std::string* line, int wake_fd = -1);

    /** Write `line` + '\n', looping until all bytes are out. */
    void writeLine(const std::string& line);

    /** Per-read timeout for readLine(); <= 0 means block forever. */
    void setReadTimeout(double seconds) { read_timeout_ = seconds; }

    bool valid() const { return fd_ >= 0; }
    void close();

  private:
    int fd_ = -1;
    double read_timeout_ = 0.0;
    std::string buffer_;
};

/**
 * Listening TCP socket. accept() blocks until a connection arrives
 * or close() is called from any thread (via the internal wake pipe),
 * in which case it returns nullopt.
 */
class Listener
{
  public:
    /**
     * Bind + listen on host:port with SO_REUSEADDR. Port 0 asks the
     * kernel for an ephemeral port; port() reports the resolved one.
     * Throws NetError when the address cannot be bound.
     */
    Listener(const std::string& host, u16 port);

    ~Listener();
    Listener(const Listener&) = delete;
    Listener& operator=(const Listener&) = delete;

    /** Blocking accept; nullopt once close() has been called. */
    std::optional<Connection> accept();

    /** Resolved listening port (useful after binding port 0). */
    u16 port() const { return port_; }

    /**
     * Stop accepting and unblock any blocked accept(). Idempotent
     * and callable from any thread: it only signals the wake pipe
     * and flips an atomic; the fds close in the destructor, after
     * the accept loop has been joined by the owner.
     */
    void close();

  private:
    int fd_ = -1;
    u16 port_ = 0;
    int wake_pipe_[2] = {-1, -1}; ///< [0] read end polled by accept
    std::atomic<bool> closed_{false};
};

} // namespace gb::net

#endif // GB_NET_NET_H
