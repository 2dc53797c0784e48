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
 * Structure per connection: one thread reads frames and answers
 * them. It submits each InferRequest to the server (admission control
 * included — a full queue becomes an explicit Rejected response,
 * never silence; a request with more frames behind it, or with
 * responses still owed, is queued, so a burst batches instead of
 * running on this thread) and keeps the responses it owes, oldest
 * first, in a fixed ring sized from ServerOptions. Whenever no further
 * frame is waiting, or the ring is full, it waits on the oldest owed
 * ticket and sends that response, one at a time; while the ring has
 * room it looks for new frames every 100 us of that wait, so requests
 * that arrive meanwhile still reach idle worker threads, and while it
 * owes responses it takes only bytes that have already arrived. It
 * reads nothing while the ring is full or a response waits for the
 * peer to read it. A peer must therefore read responses while it
 * sends, as the router does: its receivers never send and never wait
 * behind a send (router.hh). Once reading stops
 * (peer EOF, a corrupt or oversized frame, or stop()) and every owed
 * response is out, the thread shuts the socket down so the peer sees
 * the end of the stream, and the accept loop reaps the connection.
 * Health checks ride a separate connection so they are never queued
 * behind inference. Graceful drain: on a Drain frame the worker
 * refuses new work (Rejected), answers everything already accepted
 * on that connection, then sends DrainAck — the shutdown handshake
 * tie_worker and the chaos harness rely on.
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
    friend struct ClusterWorkerTestPeer; // reads conn_count_

    struct Conn
    {
        FrameConn io;
        std::thread thread;
        std::atomic<bool> done{false}; ///< thread exited; reap it
    };

    /** One response a connection owes: its request id and ticket. */
    struct Owed
    {
        uint64_t req_id = 0;
        serve::Ticket ticket; ///< invalid when shed at submit
    };

    void acceptLoop();
    void serveConn(Conn &c);

    /**
     * Send the reply to a Hello, HealthCheck or Drain frame. False,
     * with a warning, for any other type: drop the connection.
     */
    bool reply(Conn &c, WireType type);

    io::TieModel model_;
    ClusterWorkerOptions opts_;
    std::unique_ptr<serve::Server> server_;
    Listener listener_;
    std::thread accept_thread_;
    std::vector<std::unique_ptr<Conn>> conns_; ///< accept thread only
    std::atomic<size_t> conn_count_{0};        ///< conns_.size()
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
