/**
 * @file
 * Reusable nonblocking socket layer for the serving plane: loopback
 * TCP and unix-domain listeners/connectors, poll()-gated bounded-time
 * send/recv, and a framed connection that speaks the cluster wire
 * protocol (cluster/wire.hh).
 *
 * This generalizes the metrics endpoint's original ad-hoc listener
 * (serve/metrics_endpoint.cc) into the transport the cluster router
 * and workers share. The core discipline: **no unbounded blocking I/O
 * anywhere**. Every send and recv runs on a nonblocking fd gated by
 * poll() with a deadline, so one stalled peer (a client that never
 * reads, a worker that was SIGKILLed mid-frame) costs at most the
 * timeout — it can never wedge an accept loop or a shutdown path.
 * The original writeAll() bug this replaces (a blocking send() that
 * hung MetricsEndpoint::stop() forever behind a stalled scraper) has
 * a regression test in tests/test_serve.cc.
 *
 * Errors are return-value + message, never fatal: connection-level
 * failures are normal events in a cluster (chaos testing kills
 * workers on purpose) and the caller decides what dying means.
 */

#ifndef TIE_CLUSTER_SOCKET_HH
#define TIE_CLUSTER_SOCKET_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/wire.hh"

namespace tie {
namespace cluster {

/**
 * A worker address: "tcp:PORT" (loopback TCP, port 0 = ephemeral) or
 * "unix:PATH" (unix-domain stream socket).
 */
struct Endpoint
{
    enum class Kind { Tcp, Unix };
    Kind kind = Kind::Tcp;
    int port = 0;     ///< Tcp: requested port (0 = ephemeral)
    std::string path; ///< Unix: socket path

    std::string toString() const;
};

/** Parse "tcp:PORT" / "unix:PATH"; false + error on anything else. */
bool parseEndpoint(const std::string &s, Endpoint *out,
                   std::string *error = nullptr);

/** Make @p fd nonblocking. False on fcntl failure. */
bool setNonBlocking(int fd);

/**
 * Send all @p len bytes with a deadline: nonblocking send() gated by
 * poll(POLLOUT), giving up when @p timeout_ms elapses before the
 * peer drains enough buffer. False on timeout or connection error
 * (diagnostic in @p error). The fd is made nonblocking as a side
 * effect.
 */
bool sendAllTimed(int fd, const void *data, size_t len, int timeout_ms,
                  std::string *error = nullptr);

/** A bound, listening socket (close with closeListener). */
struct Listener
{
    int fd = -1;
    int port = 0;     ///< bound TCP port (after ephemeral resolve)
    Endpoint endpoint; ///< resolved address (port filled in)
};

/**
 * Bind + listen on @p ep. TCP listeners bind 127.0.0.1 only — the
 * cluster is a single-host serving plane, not an exposed service.
 * Unix listeners unlink a stale socket file first (the chaos harness
 * restarts workers on the same path). False + error on failure.
 */
bool listen(const Endpoint &ep, Listener *out,
            std::string *error = nullptr);

/** Close the fd and unlink a unix socket file. Idempotent. */
void closeListener(Listener &l);

/**
 * Accept one connection, waiting at most @p timeout_ms. Returns the
 * connected fd, or -1 on timeout/error.
 */
int acceptTimed(const Listener &l, int timeout_ms);

/** Connect to @p ep, waiting at most @p timeout_ms. -1 on failure. */
int connectTimed(const Endpoint &ep, int timeout_ms,
                 std::string *error = nullptr);

/**
 * A connected peer speaking the wire protocol: owns the fd, a reused
 * transmit buffer (sendFrame's) and a reused receive buffer, so
 * partially-arrived frames survive between recvFrame calls and the
 * steady state neither allocates nor copies a frame more than once
 * per hop. Not thread-safe; callers serialize sends and receives
 * independently (one writer, one reader is fine — the tx buffer is
 * only touched by senders, the rx buffer only by recvFrame).
 */
class FrameConn
{
  public:
    FrameConn() = default;
    explicit FrameConn(int fd) { reset(fd); }
    ~FrameConn() { close(); }

    FrameConn(const FrameConn &) = delete;
    FrameConn &operator=(const FrameConn &) = delete;

    bool open() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /**
     * Adopt @p fd (closing any previous one), make it nonblocking and
     * drop any buffered bytes. The buffers keep their capacity and
     * the payload cap is kept. An fd that cannot be made nonblocking
     * is closed, so every later call fails instead of blocking.
     */
    void reset(int fd = -1);

    void close();

    /**
     * Largest payload recvFrame accepts (default and ceiling:
     * kWireMaxPayload). A CRC-valid header claiming more is Corrupt
     * before any buffer is sized for it, so the rx buffer never grows
     * past kWireHeaderSize + this limit.
     */
    void setMaxPayload(uint64_t bytes);

    /** Bytes the receive buffer holds allocated (diagnostics). */
    size_t rxCapacity() const { return rx_.capacity(); }

    /**
     * True when bytes past the last frame recvFrame returned have
     * already arrived — buffered here or in the socket's receive
     * queue — so another frame is on its way. Never blocks.
     */
    bool inputPending() const;

    /** Encode + send one frame within @p timeout_ms. */
    bool sendFrame(WireType type, const void *payload, size_t len,
                   int timeout_ms, std::string *error = nullptr);

    /** Send @p frame, encoded by a typed encoder (wire.hh). */
    bool send(const std::vector<uint8_t> &frame, int timeout_ms,
              std::string *error = nullptr);

    /** Outcome of recvFrame. */
    enum class RecvStatus { Ok, Timeout, Closed, Corrupt };

    /**
     * Receive one whole frame, waiting at most @p timeout_ms for the
     * bytes to arrive (no deadline when negative, as for poll(); a
     * shutdown() of the socket ends the wait as Closed). On Ok, @p out views the payload inside the rx
     * buffer until the next recvFrame, reset or close. Timeout leaves
     * any partial frame buffered (a later call continues it); Closed
     * means orderly EOF between frames or mid-frame death; Corrupt is
     * the wire protocol's fail-stop rejection (the connection must be
     * dropped).
     */
    RecvStatus recvFrame(WireFrame *out, int timeout_ms,
                         std::string *error = nullptr);

  private:
    int fd_ = -1;
    uint64_t max_payload_ = kWireMaxPayload;
    std::vector<uint8_t> tx_;

    // Received bytes live in rx_[rx_begin_, rx_end_); the frame that
    // starts at rx_begin_ has a checked header once frame_size_ != 0.
    std::vector<uint8_t> rx_;
    size_t rx_begin_ = 0;
    size_t rx_end_ = 0;
    size_t frame_size_ = 0;
    WireHeader header_;
};

} // namespace cluster
} // namespace tie

#endif // TIE_CLUSTER_SOCKET_HH
