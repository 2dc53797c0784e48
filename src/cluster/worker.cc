#include "cluster/worker.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <utility>

#include "common/logging.hh"

namespace tie {
namespace cluster {

namespace {

/** Poll tick for loops that must notice stop_flag_ promptly. */
constexpr int kTickMs = 100;

/**
 * Longest a connection waits on a running request before it looks
 * for new frames again, so those reach idle worker threads meanwhile.
 */
constexpr uint64_t kAwaitUs = 100;

/** Raise @p peak to at least @p v. */
void
raiseTo(std::atomic<size_t> &peak, size_t v)
{
    size_t seen = peak.load(std::memory_order_relaxed);
    while (v > seen) {
        if (peak.compare_exchange_weak(seen, v))
            break;
    }
}

/** Send the frame encoded in @p io's tx buffer; a dead peer is logged. */
void
sendTx(FrameConn &io, int timeout_ms)
{
    std::string err;
    if (io.open() && !io.sendEncoded(timeout_ms, &err))
        TIE_WARN_ONCE("cluster worker: send failed: ", err);
}

} // namespace

ClusterWorker::ClusterWorker(io::TieModel model,
                             ClusterWorkerOptions opts)
    : model_(std::move(model)), opts_(std::move(opts))
{
    TIE_CHECK_ARG(model_.valid(), "ClusterWorker needs a loaded model");
}

ClusterWorker::~ClusterWorker()
{
    stop();
}

bool
ClusterWorker::start(std::string *error)
{
    TIE_REQUIRE(!started_, "ClusterWorker::start called twice");
    if (!listen(opts_.listen, &listener_, error))
        return false;
    // The server (and its warmed worker sessions) comes up before the
    // first connection is accepted, so a request can never observe a
    // half-built replica.
    server_ = std::make_unique<serve::Server>(model_.layers(),
                                              opts_.server);
    started_ = true;
    accept_thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
ClusterWorker::stop()
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;
    stop_flag_.store(true, std::memory_order_relaxed);
    // Kick blocked peers without closing fds other threads still use;
    // connection threads exit on their next tick after answering what
    // they owe (every accepted ticket is still waited — nothing is
    // lost).
    if (listener_.fd >= 0)
        ::shutdown(listener_.fd, SHUT_RDWR);
    if (accept_thread_.joinable())
        accept_thread_.join(); // joins every connection's threads
    if (server_ != nullptr)
        server_->stop();
    closeListener(listener_);
}

bool
ClusterWorker::waitDrained(int timeout_ms)
{
    std::unique_lock<std::mutex> lk(drain_mu_);
    return drain_cv_.wait_for(
        lk, std::chrono::milliseconds(timeout_ms),
        [this] { return drained_.load(std::memory_order_relaxed); });
}

void
ClusterWorker::acceptLoop()
{
    for (;;) {
        // Reap connections whose thread has finished, so a peer that
        // connects and disconnects in a loop costs nothing lasting.
        std::erase_if(conns_, [](const std::unique_ptr<Conn> &c) {
            const bool done = c->done.load();
            if (done)
                c->thread.join();
            return done;
        });
        conn_count_.store(conns_.size());
        if (stop_flag_.load(std::memory_order_relaxed))
            break;
        const int fd = acceptTimed(listener_, kTickMs);
        if (fd < 0)
            continue;
        auto conn = std::make_unique<Conn>();
        conn->io.reset(fd);
        // Nothing a peer may send is larger than one InferRequest.
        conn->io.setMaxPayload(inferPayloadSize(server_->inSize()));
        Conn *c = conn.get();
        c->thread = std::thread([this, c] { serveConn(*c); });
        conns_.push_back(std::move(conn));
    }
    for (auto &c : conns_) {
        if (c->io.open())
            ::shutdown(c->io.fd(), SHUT_RDWR);
        c->thread.join();
    }
    conns_.clear();
    conn_count_.store(0);
}

void
ClusterWorker::serveConn(Conn &c)
{
    // Owed responses, oldest first, in a ring that is never grown:
    // enough to keep every worker thread's batch full, plus one.
    const serve::ServerOptions &so = server_->options();
    std::vector<Owed> owed(so.max_batch * so.workers + 1);
    size_t head = 0;
    size_t owing = 0;
    InferRequestMsg req;   // decode scratch, reused for every request
    std::vector<double> y; // output scratch, reused for every response
    // Answer the oldest owed request, waiting at most wait_us for it
    // if nonzero; false while it still runs. An invalid ticket (shed
    // at submit) waits as Rejected.
    auto answerOldest = [&](uint64_t wait_us = 0) {
        const Owed &o = owed[head];
        const serve::RequestStatus st =
            server_->wait(o.ticket, &y, nullptr, wait_us);
        if (!serve::isTerminal(st))
            return false;
        if (o.ticket.valid())
            in_flight_.fetch_sub(1);
        const bool done = st == serve::RequestStatus::Done;
        (done ? done_ : shed_).fetch_add(1);
        encodeInferResponse(o.req_id, static_cast<uint32_t>(st),
                            y.data(), done ? y.size() : 0,
                            c.io.txBuffer());
        sendTx(c.io, opts_.io_timeout_ms);
        head = (head + 1) % owed.size();
        --owing;
        return true;
    };

    for (;;) {
        if (stop_flag_.load(std::memory_order_relaxed))
            break;
        // With no further frame waiting (or the ring full), answer the
        // oldest owed request, then look again: one at a time, so
        // requests that arrive meanwhile still reach the server while
        // earlier ones run.
        if (owing > 0 &&
            (owing == owed.size() || !c.io.inputPending())) {
            answerOldest(owing == owed.size() ? 0 : kAwaitUs);
            continue;
        }
        // With responses owed, take only what has arrived: the rest of
        // a partial frame may be slow to come, and must not hold up
        // the answers owed before it.
        WireFrame f;
        std::string err;
        const FrameConn::RecvStatus st =
            c.io.recvFrame(&f, owing > 0 ? 0 : kTickMs, &err);
        raiseTo(rx_peak_, c.io.rxCapacity());
        if (st == FrameConn::RecvStatus::Timeout) {
            if (owing > 0)
                answerOldest(kAwaitUs);
            continue;
        }
        if (st == FrameConn::RecvStatus::Closed)
            break;
        if (st == FrameConn::RecvStatus::Corrupt) {
            // Fail-stop, like a corrupted .tie artifact: log and kill
            // the connection; never try to resynchronize a stream
            // that has already lied once.
            TIE_WARN("cluster worker: dropping connection: ", err);
            break;
        }

        if (f.type == WireType::InferRequest) {
            if (!decodeInferRequest(f, &req) ||
                req.x.size() != server_->inSize()) {
                TIE_WARN("cluster worker: malformed InferRequest "
                         "(payload ", f.payload_size,
                         " bytes); dropping connection");
                break;
            }
            // Drained replicas shed explicitly: the router sees
            // Rejected and re-dispatches, nothing times out. The
            // server copies the input, so req is free again at once.
            // More frames already here make this a burst, and owed
            // responses are work this thread has yet to do: then queue
            // it for the worker threads, rather than run it here while
            // the rest wait.
            const serve::Ticket t =
                draining_.load(std::memory_order_relaxed)
                    ? serve::Ticket{}
                    : server_->submit(req.x.data(), req.deadline_us,
                                      owing > 0 || c.io.inputPending());
            if (t.valid())
                in_flight_.fetch_add(1);
            owed[(head + owing) % owed.size()] = Owed{req.req_id, t};
            ++owing;
            continue;
        }
        if (f.type == WireType::Drain)
            draining_.store(true, std::memory_order_relaxed);
        // A control reply goes out behind every response already owed
        // on this connection, so by the time the router reads a
        // DrainAck all prior work on it has terminal outcomes.
        while (owing > 0)
            answerOldest();
        if (!reply(c, f.type))
            break;
    }
    // Every accepted ticket is waited even when the peer is gone:
    // slots must recycle and the done/shed accounting must stay exact.
    while (owing > 0)
        answerOldest();
    // Let the peer see the end of the stream now (a dropped corrupt
    // client reads EOF) rather than when the worker stops.
    ::shutdown(c.io.fd(), SHUT_RDWR);
    c.done.store(true);
}

bool
ClusterWorker::reply(Conn &c, WireType type)
{
    std::vector<uint8_t> *tx = c.io.txBuffer();
    switch (type) {
      case WireType::Hello: {
        HelloAckMsg ack;
        ack.in_size = server_->inSize();
        ack.out_size = server_->outSize();
        ack.layers = model_.layerCount();
        ack.pid = static_cast<uint32_t>(::getpid());
        encodeHelloAck(ack, tx);
        break;
      }
      case WireType::HealthCheck: {
        HealthReportMsg health;
        health.queue_depth = server_->queueDepth();
        health.in_flight = in_flight_.load();
        health.done = done_.load();
        health.shed = shed_.load();
        health.draining = draining_.load() ? 1 : 0;
        encodeHealthReport(health, tx);
        break;
      }
      case WireType::Drain:
        encodeFrame(WireType::DrainAck, nullptr, 0, tx);
        break;
      default:
        TIE_WARN("cluster worker: unexpected ",
                 static_cast<uint32_t>(type),
                 " frame; dropping connection");
        return false;
    }
    sendTx(c.io, opts_.io_timeout_ms);
    if (type == WireType::Drain) {
        // All prior responses are out; the server backlog from this
        // connection is terminal. Publish the drained state for
        // waitDrained()/tie_worker.
        {
            std::lock_guard<std::mutex> lk(drain_mu_);
            drained_.store(true, std::memory_order_relaxed);
        }
        drain_cv_.notify_all();
    }
    return true;
}

} // namespace cluster
} // namespace tie
