/**
 * @file
 * Dynamic-batching inference server over TT layers.
 *
 * A Server owns a RequestQueue plus a pool of worker threads; each
 * worker holds its own InferSession chain (one session per model
 * layer) and a pair of ping-pong staging buffers sized for max_batch,
 * all warmed in the constructor so the serving hot path — dequeue,
 * gather columns, run the layer chain, scatter outputs, complete —
 * performs zero heap allocations (asserted in tests/test_serve.cc).
 *
 * Batch coalescing is bit-invisible: a batch is laid out with request
 * b as column b of the row-major N x batch input, and every TT kernel
 * keeps a fixed per-output-element reduction order, so each column of
 * a batched run is bit-identical to running that request alone. The
 * batching-invariance test sweeps max_batch x batch_timeout x workers
 * against batch-1 references and demands exact equality.
 *
 * Caller-runs: when the server is idle — nothing queued and no
 * worker holding a batch — submit() borrows worker 0's warmed session
 * chain and runs the request on the calling thread, as a batch of
 * one, through the same batch routine a worker thread uses; that
 * worker takes no batch until the run ends. The
 * ticket is then Done when submit returns, so submit may block for
 * one batch-1 run. Once a request is queued, later submits queue
 * behind it and the batch window applies as usual; the window never
 * delays a request that found the server idle. One submitting thread
 * feeding several workers therefore runs every request that arrives
 * while the server is idle itself, one at a time — unless it passes
 * more_follows for a burst, which queues the burst so it coalesces.
 *
 * A submitter that must also watch a socket passes a notification fd
 * to submit and polls it: the queue writes the ticket's id there when
 * the request turns terminal, so wait() then returns at once.
 *
 * Load shedding is explicit, never silent: admission control bounds
 * the queue (Rejected), per-request enqueue deadlines bound staleness
 * (TimedOut), and shutdown drains — every admitted request reaches a
 * terminal state. SLO accounting (queue-wait / batch-size / service
 * distributions with p50/p95/p99) flows through the serve.* registry
 * stats when observability is enabled. See docs/serving.md.
 */

#ifndef TIE_SERVE_SERVER_HH
#define TIE_SERVE_SERVER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "serve/request_queue.hh"
#include "tt/infer_session.hh"

namespace tie {
namespace serve {

/** Server construction knobs. */
struct ServerOptions
{
    /** Max requests coalesced into one inference batch. */
    size_t max_batch = 8;

    /**
     * Microseconds a partially-filled batch may wait for more
     * requests, measured from the oldest queued request's enqueue.
     * 0 executes whatever is queued immediately (latency-greedy).
     * The window applies only once a request is queued: a request
     * that finds the server idle runs at once on the submitting
     * thread (see Server::submit).
     */
    uint64_t batch_timeout_us = 200;

    /**
     * Admission bound on queued requests; beyond it -> Rejected. Each
     * unit of capacity costs a request slot's metadata until traffic
     * first uses the slot; only then does it take its N + M doubles.
     * The worst case is unchanged: every slot in use.
     */
    size_t queue_capacity = 256;

    /** Worker threads, each with its own session chain. */
    size_t workers = 1;

    /** Session policy for the pooled sessions. */
    SessionOptions session = {};
};

class Server
{
  public:
    /**
     * Serve a chain of TT layers applied in order (layer i's output
     * feeds layer i+1; interface sizes are validated). The layer
     * views' core storage is immutable and must outlive the server —
     * an io::TieModel kept alive by whoever built the views (e.g. a
     * ModelRegistry entry). Workers and their warmed sessions are
     * started before the constructor returns.
     */
    Server(std::vector<TtLayerViewD> model, ServerOptions opts = {});

    ~Server(); ///< stop(), drain the queue, join the workers

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    size_t inSize() const { return in_size_; }
    size_t outSize() const { return out_size_; }
    const ServerOptions &options() const { return opts_; }

    /**
     * Admission-controlled submit; see RequestQueue::trySubmit. An
     * idle server runs the request on the calling thread (caller-runs,
     * above) with the stats and flight phases of a queued batch of
     * one; the ticket is then Done before submit returns. Pass
     * @p more_follows when further requests are ready right behind
     * this one: it is then always queued, so a burst from one thread
     * coalesces into batches instead of running one by one here.
     * @p notify_fd gets the ticket's id once it is terminal, inline
     * runs included (RequestQueue's Notification); @p load as there.
     */
    Ticket submit(const void *x, uint64_t deadline_us = 0,
                  bool more_follows = false, int notify_fd = -1,
                  InputLoader load = nullptr);
    Ticket submit(const std::vector<double> &x,
                  uint64_t deadline_us = 0, bool more_follows = false);

    /** Block until @p t is terminal, then collect it (queue wait). */
    RequestStatus wait(Ticket t, std::vector<double> *out = nullptr,
                       RequestTiming *timing = nullptr);

    /**
     * Stop admitting, drain queued requests through the workers, join
     * them and wait for every caller-runs submit already admitted to
     * finish its run. Idempotent; the destructor calls it.
     */
    void stop();

    /** Pending (queued) requests right now. */
    size_t queueDepth() const { return queue_.depth(); }

    /**
     * Identity stamped on this server's flight-recorder events
     * (obs/flight_recorder.hh). The ModelRegistry sets it after
     * publishing — versions are assigned at publish time, after the
     * Server is constructed — so it is an atomic, settable any time.
     */
    void
    setFlightTag(uint16_t model_id, uint16_t model_version)
    {
        flight_tag_.store((uint32_t(model_id) << 16) | model_version,
                          std::memory_order_relaxed);
    }

  private:
    friend struct ServerTestPeer; // lends every chain to a test

    /**
     * One session chain. Its thread runs the batches it dequeues; a
     * caller-runs submit uses the chain while the queue has this
     * worker's runner (index) lent to it. The queue's runner state
     * gives the chain one user at a time.
     */
    struct Worker
    {
        size_t index = 0; ///< runner index in queue_
        std::vector<InferSessionD> sessions; ///< one per layer
        std::vector<double> buf_a;  ///< ping-pong staging, row-major
        std::vector<double> buf_b;  ///< width_max * max_batch each
        std::vector<uint32_t> ids;  ///< worker thread's dequeue target
        std::thread thread;
    };

    void workerLoop(Worker &w);

    /**
     * Run requests @p ids[0..n) as one batch on @p w's chain — the
     * worker's own dequeued batch, or a caller-runs request with the
     * chain lent: gather, the layer chain, scatter, serve.* stats,
     * flight phases and completeBatch, which makes the chain idle; a
     * batch of one runs in place in its slots.
     * @p fr is the recorder gate sampled once for the batch, @p bf_t0
     * when forming began.
     */
    void runBatch(Worker &w, const uint32_t *ids, size_t n, bool fr,
                  uint64_t bf_t0);

    std::vector<TtLayerViewD> model_;
    ServerOptions opts_;
    size_t in_size_ = 0;
    size_t out_size_ = 0;
    RequestQueue queue_;
    std::vector<std::unique_ptr<Worker>> workers_;
    bool stopped_ = false;
    /** (model_id << 16) | model_version for flight events. */
    std::atomic<uint32_t> flight_tag_{0};
};

} // namespace serve
} // namespace tie

#endif // TIE_SERVE_SERVER_HH
