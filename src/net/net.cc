#include "net/net.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace gb::net {

namespace {

[[noreturn]] void
throwErrno(const std::string& what)
{
    throw NetError(what + ": " + std::strerror(errno));
}

/** close(2), retrying on EINTR, ignoring errors (destructor path). */
void
closeFd(int fd)
{
    if (fd < 0) return;
    int rc;
    do {
        rc = ::close(fd);
    } while (rc < 0 && errno == EINTR);
}

/**
 * poll(2) one or two fds for readability, EINTR-safe with deadline
 * re-arming. timeout_seconds <= 0 blocks forever.
 * @return 0 on timeout, else the revents-ready fd (first wins).
 */
int
pollReadable(int fd, int wake_fd, double timeout_seconds)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               timeout_seconds > 0.0 ? timeout_seconds
                                                     : 0.0));
    for (;;) {
        struct pollfd fds[2];
        nfds_t nfds = 0;
        fds[nfds++] = {fd, POLLIN, 0};
        if (wake_fd >= 0) fds[nfds++] = {wake_fd, POLLIN, 0};
        int timeout_ms = -1;
        if (timeout_seconds > 0.0) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
            if (left <= 0) return 0;
            timeout_ms = static_cast<int>(left);
        }
        const int rc = ::poll(fds, nfds, timeout_ms);
        if (rc < 0) {
            if (errno == EINTR) continue;
            throwErrno("poll");
        }
        if (rc == 0) return 0;
        // Wake pipe wins: a close() must end the wait even if data
        // also arrived.
        if (wake_fd >= 0 && (fds[1].revents & (POLLIN | POLLHUP))) {
            return wake_fd;
        }
        return fd;
    }
}

sockaddr_in
makeAddr(const std::string& host, u16 port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        throw NetError("bad IPv4 address: '" + host + "'");
    }
    return addr;
}

} // namespace

// ---------------------------------------------------------------------
// Connection

Connection::~Connection()
{
    close();
}

Connection::Connection(Connection&& other) noexcept
    : fd_(other.fd_),
      read_timeout_(other.read_timeout_),
      buffer_(std::move(other.buffer_))
{
    other.fd_ = -1;
}

Connection&
Connection::operator=(Connection&& other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        read_timeout_ = other.read_timeout_;
        buffer_ = std::move(other.buffer_);
        other.fd_ = -1;
    }
    return *this;
}

void
Connection::close()
{
    closeFd(fd_);
    fd_ = -1;
}

Connection
Connection::connectTo(const std::string& host, u16 port,
                      double retry_seconds)
{
    const sockaddr_in addr = makeAddr(host, port);
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               retry_seconds > 0.0 ? retry_seconds
                                                   : 0.0));
    for (;;) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) throwErrno("socket");
        int rc;
        do {
            rc = ::connect(
                fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr));
        } while (rc < 0 && errno == EINTR);
        if (rc == 0) {
            // Small request/reply lines: send them now, not Nagled.
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
            return Connection(fd);
        }
        const int saved = errno;
        closeFd(fd);
        if (saved == ECONNREFUSED && Clock::now() < deadline) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            continue;
        }
        errno = saved;
        throwErrno("connect to " + host + ":" +
                   std::to_string(port));
    }
}

bool
Connection::readLine(std::string* line, int wake_fd)
{
    for (;;) {
        const size_t nl = buffer_.find('\n');
        if (std::min(nl, buffer_.size()) > kMaxLineBytes) {
            throw LineTooLongError();
        }
        if (nl != std::string::npos) {
            *line = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            if (!line->empty() && line->back() == '\r') {
                line->pop_back();
            }
            return true;
        }
        const int ready = pollReadable(fd_, wake_fd, read_timeout_);
        if (ready != fd_) return false; // timeout or wake
        char chunk[4096];
        ssize_t n;
        do {
            n = ::recv(fd_, chunk, sizeof(chunk), 0);
        } while (n < 0 && errno == EINTR);
        if (n < 0) throwErrno("recv");
        if (n == 0) return false; // orderly EOF (partial line dropped)
        buffer_.append(chunk, static_cast<size_t>(n));
    }
}

void
Connection::writeLine(const std::string& line)
{
    std::string out = line;
    out.push_back('\n');
    size_t sent = 0;
    while (sent < out.size()) {
        ssize_t n;
        do {
            // MSG_NOSIGNAL: a peer that vanished mid-reply must
            // surface as EPIPE here, not kill the process.
            n = ::send(fd_, out.data() + sent, out.size() - sent,
                       MSG_NOSIGNAL);
        } while (n < 0 && errno == EINTR);
        if (n < 0) throwErrno("send");
        sent += static_cast<size_t>(n);
    }
}

// ---------------------------------------------------------------------
// Listener

Listener::Listener(const std::string& host, u16 port)
{
    const sockaddr_in addr = makeAddr(host, port);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throwErrno("socket");
    int one = 1;
    if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one)) < 0) {
        const int saved = errno;
        closeFd(fd_);
        errno = saved;
        throwErrno("setsockopt(SO_REUSEADDR)");
    }
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(fd_, 64) < 0) {
        const int saved = errno;
        closeFd(fd_);
        fd_ = -1;
        errno = saved;
        throwErrno("bind/listen on " + host + ":" +
                   std::to_string(port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) < 0) {
        const int saved = errno;
        closeFd(fd_);
        fd_ = -1;
        errno = saved;
        throwErrno("getsockname");
    }
    port_ = ntohs(bound.sin_port);
    if (::pipe(wake_pipe_) < 0) {
        const int saved = errno;
        closeFd(fd_);
        fd_ = -1;
        errno = saved;
        throwErrno("pipe");
    }
}

Listener::~Listener()
{
    closed_.store(true, std::memory_order_release);
    closeFd(wake_pipe_[1]);
    closeFd(wake_pipe_[0]);
    closeFd(fd_);
}

std::optional<Connection>
Listener::accept()
{
    for (;;) {
        if (closed_.load(std::memory_order_acquire)) {
            return std::nullopt;
        }
        const int ready = pollReadable(fd_, wake_pipe_[0], 0.0);
        if (ready == wake_pipe_[0]) return std::nullopt; // close()
        int client;
        do {
            client = ::accept(fd_, nullptr, nullptr);
        } while (client < 0 && errno == EINTR);
        if (client < 0) {
            // The connection died between poll and accept; keep
            // serving.
            if (errno == ECONNABORTED || errno == EAGAIN ||
                errno == EWOULDBLOCK) {
                continue;
            }
            throwErrno("accept");
        }
        int one = 1;
        ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        return Connection(client);
    }
}

void
Listener::close()
{
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
    // Wake a blocked accept(); the fds themselves stay open until
    // the destructor so the accept loop never polls a dead fd.
    const char byte = 0;
    ssize_t n;
    do {
        n = ::write(wake_pipe_[1], &byte, 1);
    } while (n < 0 && errno == EINTR);
}

} // namespace gb::net
