/**
 * @file
 * Cluster worker: one replica of the serving plane.
 *
 * A ClusterWorker wraps the existing dynamic-batching serve::Server
 * (built over a mapped .tie artifact, so weights are served zero-copy
 * off the page cache) with a wire-protocol socket front end
 * (cluster/wire.hh, cluster/socket.hh). The router — or anything that
 * speaks the protocol — connects over unix/TCP, handshakes with
 * Hello/HelloAck, and streams InferRequests; the worker answers every
 * accepted request with exactly one InferResponse carrying its
 * terminal outcome (Done + output bits, TimedOut, or Rejected).
 *
 * Structure per connection: a reader thread decodes frames and
 * submits to the server (admission control included — a full queue
 * becomes an explicit Rejected response, never silence; a request
 * with more frames already behind it is queued, so a burst batches
 * instead of running on the reader), and a writer thread collects
 * tickets in FIFO order and sends the responses. Once
 * the reader stops (peer EOF, or a corrupt or oversized frame) and
 * every owed response is out, the writer shuts the socket down so the
 * peer sees the end of the stream.
 * Health checks ride a separate connection so they are never queued
 * behind inference. Graceful drain: on a Drain frame the worker
 * refuses new work (Rejected), finishes everything already accepted,
 * then sends DrainAck — the shutdown handshake tie_worker and the
 * chaos harness rely on.
 *
 * The cross-replica contract is the PR 4 bit-exactness invariant:
 * any replica, same bits. Every worker runs the same deterministic
 * kernels over the same artifact, so the router may re-dispatch a
 * request to any live replica and memcmp the outputs.
 */

#ifndef TIE_CLUSTER_WORKER_HH
#define TIE_CLUSTER_WORKER_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/socket.hh"
#include "io/tie_format.hh"
#include "serve/server.hh"

namespace tie {
namespace cluster {

struct ClusterWorkerOptions
{
    /** Address to serve on ("tcp:0" = ephemeral loopback port). */
    Endpoint listen;

    /** Knobs of the wrapped dynamic-batching server. */
    serve::ServerOptions server;

    /** Per-frame send deadline; a stalled peer costs at most this. */
    int io_timeout_ms = 5000;
};

class ClusterWorker
{
  public:
    /** Serve @p model (kept alive by the worker). */
    ClusterWorker(io::TieModel model, ClusterWorkerOptions opts);

    ~ClusterWorker(); ///< stop()

    ClusterWorker(const ClusterWorker &) = delete;
    ClusterWorker &operator=(const ClusterWorker &) = delete;

    /**
     * Bind, start the server and the accept loop. False + diagnostic
     * when the endpoint cannot be bound.
     */
    bool start(std::string *error = nullptr);

    /**
     * Stop accepting, drain every accepted request to a terminal
     * state (responses are still sent where the connection survives),
     * join all threads and close the sockets. Idempotent.
     */
    void stop();

    /** Resolved listen address (ephemeral TCP port filled in). */
    const Endpoint &endpoint() const { return listener_.endpoint; }

    /**
     * Block until a Drain frame has been fully honored (all accepted
     * work finished and DrainAck sent) or @p timeout_ms elapsed.
     * True when drained.
     */
    bool waitDrained(int timeout_ms);

    /**
     * Largest receive buffer any connection has allocated, in bytes.
     * Each connection caps its payloads at one InferRequest of this
     * model, so this never exceeds kWireHeaderSize +
     * inferPayloadSize(in_size) however large a size a peer claims.
     */
    size_t rxBufferPeak() const { return rx_peak_.load(); }

    uint64_t doneCount() const { return done_.load(); }
    uint64_t shedCount() const { return shed_.load(); }
    uint64_t inFlight() const { return in_flight_.load(); }
    bool draining() const { return draining_.load(); }

  private:
    /**
     * One queued response-side work item (FIFO per connection). The
     * writer encodes each into the connection's tx buffer.
     */
    struct Item
    {
        enum class Kind { HelloAck, HealthReport, Rejected, Ticket, DrainAck };
        Kind kind = Kind::HelloAck;
        uint64_t req_id = 0;    ///< Rejected, Ticket
        serve::Ticket ticket;   ///< Ticket
        HealthReportMsg health; ///< HealthReport (taken at receipt)
    };

    struct Conn
    {
        FrameConn io;
        std::thread reader;
        std::thread writer;
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Item> q;
        bool closed = false; ///< reader done; writer drains and exits
    };

    void acceptLoop();
    void readerLoop(Conn &c);
    void writerLoop(Conn &c);
    void pushItem(Conn &c, Item item);

    io::TieModel model_;
    ClusterWorkerOptions opts_;
    std::unique_ptr<serve::Server> server_;
    Listener listener_;
    std::thread accept_thread_;
    std::vector<std::unique_ptr<Conn>> conns_; ///< accept thread only
    std::atomic<bool> stop_flag_{false};
    bool started_ = false;
    bool stopped_ = false;

    std::atomic<bool> draining_{false};
    std::atomic<bool> drained_{false};
    std::mutex drain_mu_;
    std::condition_variable drain_cv_;

    std::atomic<uint64_t> done_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> in_flight_{0};
    std::atomic<size_t> rx_peak_{0};
};

} // namespace cluster
} // namespace tie

#endif // TIE_CLUSTER_WORKER_HH
