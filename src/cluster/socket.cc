#include "cluster/socket.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace tie {
namespace cluster {

namespace {

using Clock = std::chrono::steady_clock;

void
setError(std::string *error, const std::string &msg)
{
    if (error != nullptr)
        *error = msg;
}

/** Milliseconds left until @p deadline, clamped to [0, timeout]. */
int
remainingMs(Clock::time_point deadline)
{
    const auto left = std::chrono::duration_cast<
        std::chrono::milliseconds>(deadline - Clock::now());
    return left.count() <= 0
               ? 0
               : static_cast<int>(std::min<int64_t>(left.count(),
                                                    60000));
}

int
newSocket(int domain, std::string *error)
{
    const int fd = ::socket(domain, SOCK_STREAM, 0);
    if (fd < 0)
        setError(error,
                 strCat("socket() failed: ", std::strerror(errno)));
    return fd;
}

/**
 * sendAllTimed on an fd that is already nonblocking (FrameConn sets
 * the flag once when it adopts the fd, not on every send).
 */
bool
sendAll(int fd, const void *data, size_t len, int timeout_ms,
        std::string *error)
{
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    const uint8_t *p = static_cast<const uint8_t *>(data);
    size_t off = 0;
    while (off < len) {
        const ssize_t n =
            ::send(fd, p + off, len - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            setError(error,
                     strCat("send() failed: ", std::strerror(errno)));
            return false;
        }
        // Buffer full: wait for the peer to drain, bounded by the
        // deadline — a reader that never drains costs timeout_ms,
        // not forever.
        const int wait = remainingMs(deadline);
        if (wait == 0) {
            setError(error, strCat("send timed out after ",
                                   timeout_ms, " ms with ", len - off,
                                   " bytes unsent"));
            return false;
        }
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        const int r = ::poll(&pfd, 1, wait);
        if (r < 0 && errno != EINTR) {
            setError(error,
                     strCat("poll() failed: ", std::strerror(errno)));
            return false;
        }
        if (r > 0 && (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) &&
            !(pfd.revents & POLLOUT)) {
            setError(error, "peer closed the connection");
            return false;
        }
    }
    return true;
}

} // namespace

std::string
Endpoint::toString() const
{
    return kind == Kind::Tcp ? strCat("tcp:", port)
                             : strCat("unix:", path);
}

bool
parseEndpoint(const std::string &s, Endpoint *out, std::string *error)
{
    if (s.rfind("tcp:", 0) == 0) {
        const std::string body = s.substr(4);
        char *end = nullptr;
        const long port = std::strtol(body.c_str(), &end, 10);
        if (body.empty() || end == nullptr || *end != '\0' ||
            port < 0 || port > 65535) {
            setError(error, strCat("bad tcp endpoint '", s,
                                   "': want tcp:PORT (0-65535)"));
            return false;
        }
        out->kind = Endpoint::Kind::Tcp;
        out->port = static_cast<int>(port);
        out->path.clear();
        return true;
    }
    if (s.rfind("unix:", 0) == 0) {
        const std::string path = s.substr(5);
        if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
            setError(error, strCat("bad unix endpoint '", s,
                                   "': empty or too-long path"));
            return false;
        }
        out->kind = Endpoint::Kind::Unix;
        out->port = 0;
        out->path = path;
        return true;
    }
    setError(error, strCat("bad endpoint '", s,
                           "': want tcp:PORT or unix:PATH"));
    return false;
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool
sendAllTimed(int fd, const void *data, size_t len, int timeout_ms,
             std::string *error)
{
    if (!setNonBlocking(fd)) {
        setError(error, strCat("fcntl(O_NONBLOCK) failed: ",
                               std::strerror(errno)));
        return false;
    }
    return sendAll(fd, data, len, timeout_ms, error);
}

bool
listen(const Endpoint &ep, Listener *out, std::string *error)
{
    out->endpoint = ep;
    if (ep.kind == Endpoint::Kind::Tcp) {
        const int fd = newSocket(AF_INET, error);
        if (fd < 0)
            return false;
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<uint16_t>(ep.port));
        if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(fd, 64) != 0) {
            setError(error, strCat("cannot listen on 127.0.0.1:",
                                   ep.port, ": ",
                                   std::strerror(errno)));
            ::close(fd);
            return false;
        }
        sockaddr_in bound{};
        socklen_t blen = sizeof(bound);
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                          &blen) == 0)
            out->port = static_cast<int>(ntohs(bound.sin_port));
        out->endpoint.port = out->port;
        out->fd = fd;
        return true;
    }

    const int fd = newSocket(AF_UNIX, error);
    if (fd < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ep.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    // A restarted worker reuses its predecessor's path; the stale
    // socket file would otherwise make bind() fail with EADDRINUSE.
    ::unlink(ep.path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        setError(error, strCat("cannot listen on ", ep.path, ": ",
                               std::strerror(errno)));
        ::close(fd);
        return false;
    }
    out->fd = fd;
    out->port = 0;
    return true;
}

void
closeListener(Listener &l)
{
    if (l.fd >= 0) {
        ::close(l.fd);
        l.fd = -1;
    }
    if (l.endpoint.kind == Endpoint::Kind::Unix &&
        !l.endpoint.path.empty())
        ::unlink(l.endpoint.path.c_str());
}

int
acceptTimed(const Listener &l, int timeout_ms)
{
    pollfd pfd{};
    pfd.fd = l.fd;
    pfd.events = POLLIN;
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r <= 0)
        return -1;
    return ::accept(l.fd, nullptr, nullptr);
}

int
connectTimed(const Endpoint &ep, int timeout_ms, std::string *error)
{
    int fd;
    if (ep.kind == Endpoint::Kind::Tcp) {
        fd = newSocket(AF_INET, error);
        if (fd < 0)
            return -1;
        if (!setNonBlocking(fd)) {
            setError(error, strCat("fcntl(O_NONBLOCK) failed: ",
                                   std::strerror(errno)));
            ::close(fd);
            return -1;
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<uint16_t>(ep.port));
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0 &&
            errno != EINPROGRESS) {
            setError(error, strCat("connect(127.0.0.1:", ep.port,
                                   ") failed: ",
                                   std::strerror(errno)));
            ::close(fd);
            return -1;
        }
    } else {
        fd = newSocket(AF_UNIX, error);
        if (fd < 0)
            return -1;
        if (!setNonBlocking(fd)) {
            setError(error, strCat("fcntl(O_NONBLOCK) failed: ",
                                   std::strerror(errno)));
            ::close(fd);
            return -1;
        }
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, ep.path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0 &&
            errno != EINPROGRESS) {
            setError(error, strCat("connect(", ep.path, ") failed: ",
                                   std::strerror(errno)));
            ::close(fd);
            return -1;
        }
    }

    // Nonblocking connect: wait for writability, then read the
    // deferred result from SO_ERROR.
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r <= 0) {
        setError(error, strCat("connect to ", ep.toString(),
                               " timed out after ", timeout_ms,
                               " ms"));
        ::close(fd);
        return -1;
    }
    int so_error = 0;
    socklen_t slen = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &slen) !=
            0 ||
        so_error != 0) {
        setError(error, strCat("connect to ", ep.toString(),
                               " failed: ",
                               std::strerror(so_error != 0 ? so_error
                                                           : errno)));
        ::close(fd);
        return -1;
    }
    return fd;
}

void
FrameConn::reset(int fd)
{
    close();
    fd_ = fd;
    if (fd_ >= 0 && !setNonBlocking(fd_)) {
        TIE_WARN("cannot make fd ", fd_, " nonblocking (",
                 std::strerror(errno), "); closing it");
        close();
    }
}

void
FrameConn::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    rx_begin_ = rx_end_ = frame_size_ = 0;
}

void
FrameConn::setMaxPayload(uint64_t bytes)
{
    max_payload_ = std::min(bytes, kWireMaxPayload);
}

bool
FrameConn::inputPending() const
{
    if (rx_end_ > rx_begin_)
        return true;
    int queued = 0;
    return fd_ >= 0 && ::ioctl(fd_, FIONREAD, &queued) == 0 && queued > 0;
}

bool
FrameConn::sendFrame(WireType type, const void *payload, size_t len,
                     int timeout_ms, std::string *error)
{
    encodeFrame(type, payload, len, &tx_);
    return send(tx_, timeout_ms, error);
}

bool
FrameConn::send(const std::vector<uint8_t> &frame, int timeout_ms,
                std::string *error)
{
    if (fd_ < 0) {
        setError(error, "send on a closed connection");
        return false;
    }
    return sendAll(fd_, frame.data(), frame.size(), timeout_ms, error);
}

FrameConn::RecvStatus
FrameConn::recvFrame(WireFrame *out, int timeout_ms,
                     std::string *error)
{
    if (fd_ < 0) {
        setError(error, "recvFrame on a closed connection");
        return RecvStatus::Closed;
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const uint8_t *frame = rx_.data() + rx_begin_;
        const size_t have = rx_end_ - rx_begin_;
        if (frame_size_ == 0) {
            // Each header is checked once, as soon as it is complete;
            // its size claim is held to the cap before the buffer is
            // sized for it.
            const DecodeStatus st = decodeFrameHeader(
                frame, have, max_payload_, &header_, error);
            if (st == DecodeStatus::Corrupt)
                return RecvStatus::Corrupt;
            if (st == DecodeStatus::Ok)
                frame_size_ = kWireHeaderSize +
                              static_cast<size_t>(header_.payload_size);
        }
        if (frame_size_ != 0 && have >= frame_size_) {
            const uint8_t *payload = frame + kWireHeaderSize;
            if (verifyPayload(header_, payload, error) !=
                DecodeStatus::Ok)
                return RecvStatus::Corrupt;
            out->type = header_.type;
            out->payload = payload;
            out->payload_size = frame_size_ - kWireHeaderSize;
            rx_begin_ += frame_size_;
            frame_size_ = 0;
            return RecvStatus::Ok;
        }

        // Make room for the rest of this frame (or of its header) so
        // the bytes land where they are decoded. Any earlier frame the
        // caller held a view of is dead by now, so the unread tail may
        // move to the front.
        const size_t want =
            frame_size_ != 0 ? frame_size_ : kWireHeaderSize;
        if (have == 0 || rx_begin_ + want > rx_.size()) {
            if (have != 0)
                std::memmove(rx_.data(), frame, have);
            rx_begin_ = 0;
            rx_end_ = have;
            if (want > rx_.size()) {
                rx_.reserve(want); // exactly one frame, no slack
                rx_.resize(want);
            }
        }

        const ssize_t n =
            ::recv(fd_, rx_.data() + rx_end_, rx_.size() - rx_end_, 0);
        if (n > 0) {
            rx_end_ += static_cast<size_t>(n);
            continue;
        }
        if (n == 0) {
            if (have != 0)
                setError(error, "peer closed mid-frame");
            return RecvStatus::Closed;
        }
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
            setError(error,
                     strCat("recv() failed: ", std::strerror(errno)));
            return RecvStatus::Closed;
        }
        const int wait = remainingMs(deadline);
        if (wait == 0)
            return RecvStatus::Timeout;
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        const int r = ::poll(&pfd, 1, wait);
        if (r < 0 && errno != EINTR) {
            setError(error,
                     strCat("poll() failed: ", std::strerror(errno)));
            return RecvStatus::Closed;
        }
    }
}

} // namespace cluster
} // namespace tie
