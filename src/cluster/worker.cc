#include "cluster/worker.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.hh"

namespace tie {
namespace cluster {

namespace {

/** Accept-loop tick, so it notices stop_flag_ promptly. */
constexpr int kTickMs = 100;

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

/** Send the frame encoded in @p tx; a dead peer is logged. */
void
sendTx(FrameConn &io, const std::vector<uint8_t> &tx, int timeout_ms)
{
    std::string err;
    if (io.open() && !io.send(tx, timeout_ms, &err))
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
    // the accept loop shuts every connection's socket down, and each
    // connection thread exits once it has answered what it owes
    // (every accepted ticket is still waited — nothing is lost).
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

ClusterWorker::Conn::~Conn()
{
    ::close(done_pipe[0]);
    ::close(done_pipe[1]);
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
        if (::pipe2(conn->done_pipe, O_NONBLOCK | O_CLOEXEC) != 0) {
            TIE_WARN("cluster worker: dropping connection: pipe2: ",
                     std::strerror(errno));
            continue;
        }
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
    std::vector<uint32_t> ids(owed.size()); // 4-byte ids, one per owed
    InferRequestMsg req; // a view of the frame being read
    std::vector<double> y; // swapped with each Done output slot
    // No whole frame is buffered or queued: wait for the socket. Only
    // bytes that have arrived are taken, so the rest of a partial frame
    // never holds up the answers owed before it.
    bool rx_idle = false;
    // Send the finished responses at the ring's head, in order (a shed
    // ticket is born finished and waits as Rejected). Then, unless a
    // frame may be read now, poll() for a finished ticket's id and,
    // with @p read and room in the ring, for the socket.
    auto answer = [&](bool read) {
        for (; owing > 0 && owed[head].finished; --owing) {
            const Owed &o = owed[head];
            const serve::RequestStatus st = server_->wait(o.ticket, &y);
            if (o.ticket.valid())
                in_flight_.fetch_sub(1);
            const bool done = st == serve::RequestStatus::Done;
            (done ? done_ : shed_).fetch_add(1);
            encodeInferResponse(o.req_id, static_cast<uint32_t>(st),
                                y.data(), done ? y.size() : 0, &c.tx);
            sendTx(c.io, c.tx, opts_.io_timeout_ms);
            head = (head + 1) % owed.size();
        }
        const bool sock = read && owing < owed.size();
        pollfd p[2] = {{sock ? c.io.fd() : -1, POLLIN, 0},
                       {c.done_pipe[0], POLLIN, 0}};
        if ((sock ? !rx_idle : owing == 0) || ::poll(p, 2, -1) <= 0)
            return; // or EINTR: look again
        const ssize_t n = p[1].revents == 0 ? 0
                          : ::read(p[1].fd, ids.data(), ids.size() * 4);
        for (ssize_t i = 0; i < n / 4; ++i)
            for (size_t k = 0; k < owing; ++k)
                if (Owed &o = owed[(head + k) % owed.size()];
                    o.ticket.id == ids[i])
                    o.finished = true;
        rx_idle = rx_idle && p[0].revents == 0;
    };

    for (;;) {
        answer(true);
        if (owing == owed.size() || rx_idle)
            continue;
        WireFrame f;
        std::string err;
        const FrameConn::RecvStatus st = c.io.recvFrame(&f, 0, &err);
        raiseTo(rx_peak_, c.io.rxCapacity());
        rx_idle = st == FrameConn::RecvStatus::Timeout;
        if (rx_idle)
            continue;
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
                req.n != server_->inSize()) {
                TIE_WARN("cluster worker: malformed InferRequest "
                         "(payload ", f.payload_size,
                         " bytes); dropping connection");
                break;
            }
            // Drained replicas shed explicitly: the router sees
            // Rejected and re-dispatches, nothing times out. The
            // server copies the values from the frame into a slot.
            // More frames already here make this a burst, and owed
            // responses are work this thread has yet to do: then queue
            // it for the worker threads, rather than run it here while
            // the rest wait.
            rx_idle = !c.io.inputPending();
            const serve::Ticket t =
                draining_.load(std::memory_order_relaxed)
                    ? serve::Ticket{}
                    : server_->submit(req.values, req.deadline_us,
                                      owing > 0 || !rx_idle,
                                      c.done_pipe[1], loadWireF64s);
            if (t.valid())
                in_flight_.fetch_add(1);
            owed[(head + owing) % owed.size()] =
                Owed{req.req_id, t, !t.valid()};
            ++owing;
            continue;
        }
        if (f.type == WireType::Drain)
            draining_.store(true, std::memory_order_relaxed);
        // A control reply goes out behind every response already owed
        // on this connection, so by the time the router reads a
        // DrainAck all prior work on it has terminal outcomes.
        while (owing > 0)
            answer(false);
        if (!reply(c, f.type))
            break;
    }
    // Every accepted ticket is waited even when the peer is gone:
    // slots must recycle, the done/shed accounting must stay exact,
    // and no id may be left to reach the pipe once it is closed.
    while (owing > 0)
        answer(false);
    // Let the peer see the end of the stream now (a dropped corrupt
    // client reads EOF) rather than when the worker stops.
    ::shutdown(c.io.fd(), SHUT_RDWR);
    c.done.store(true);
}

bool
ClusterWorker::reply(Conn &c, WireType type)
{
    std::vector<uint8_t> *tx = &c.tx;
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
    sendTx(c.io, c.tx, opts_.io_timeout_ms);
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
