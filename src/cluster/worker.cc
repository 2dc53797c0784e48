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
    // readers exit on their next tick, writers drain their queues
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

void
ClusterWorker::acceptLoop()
{
    for (;;) {
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
        c->reader = std::thread([this, c] { readerLoop(*c); });
        c->writer = std::thread([this, c] { writerLoop(*c); });
        conns_.push_back(std::move(conn));
    }
    for (auto &c : conns_) {
        if (c->io.open())
            ::shutdown(c->io.fd(), SHUT_RDWR);
        if (c->reader.joinable())
            c->reader.join();
        if (c->writer.joinable())
            c->writer.join();
        c->io.close();
    }
    conns_.clear();
}

void
ClusterWorker::pushItem(Conn &c, Item item)
{
    {
        std::lock_guard<std::mutex> lk(c.mu);
        c.q.push_back(std::move(item));
    }
    c.cv.notify_one();
}

void
ClusterWorker::readerLoop(Conn &c)
{
    InferRequestMsg req; // decode scratch, reused for every request
    for (;;) {
        if (stop_flag_.load(std::memory_order_relaxed))
            break;
        WireFrame f;
        std::string err;
        const FrameConn::RecvStatus st =
            c.io.recvFrame(&f, kTickMs, &err);
        raiseTo(rx_peak_, c.io.rxCapacity());
        if (st == FrameConn::RecvStatus::Timeout)
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

        Item item;
        switch (f.type) {
          case WireType::Hello:
            item.kind = Item::Kind::HelloAck;
            break;
          case WireType::HealthCheck:
            item.kind = Item::Kind::HealthReport;
            item.health.queue_depth = server_->queueDepth();
            item.health.in_flight = in_flight_.load();
            item.health.done = done_.load();
            item.health.shed = shed_.load();
            item.health.draining = draining_.load() ? 1 : 0;
            break;
          case WireType::InferRequest: {
            if (!decodeInferRequest(f, &req) ||
                req.x.size() != server_->inSize()) {
                TIE_WARN("cluster worker: malformed InferRequest "
                         "(payload ", f.payload_size,
                         " bytes); dropping connection");
                goto done;
            }
            item.req_id = req.req_id;
            // Drained replicas shed explicitly: the router sees
            // Rejected and re-dispatches, nothing times out. The
            // server copies the input, so req is free again at once.
            // More frames already here make this a burst: queue it so
            // the worker threads batch it, rather than run it on this
            // reader while the rest wait.
            const serve::Ticket t =
                draining_.load(std::memory_order_relaxed)
                    ? serve::Ticket{}
                    : server_->submit(req.x.data(), req.deadline_us,
                                      c.io.inputPending());
            if (!t.valid()) {
                shed_.fetch_add(1);
                item.kind = Item::Kind::Rejected;
            } else {
                in_flight_.fetch_add(1);
                item.kind = Item::Kind::Ticket;
                item.ticket = t;
            }
            break;
          }
          case WireType::Drain:
            draining_.store(true, std::memory_order_relaxed);
            // The ack is queued behind every response already owed on
            // this connection, so by the time the router reads it all
            // prior work on this replica has terminal outcomes.
            item.kind = Item::Kind::DrainAck;
            break;
          default:
            TIE_WARN("cluster worker: unexpected ",
                     static_cast<uint32_t>(f.type),
                     " frame; dropping connection");
            goto done;
        }
        pushItem(c, std::move(item));
    }
done:
    {
        std::lock_guard<std::mutex> lk(c.mu);
        c.closed = true;
    }
    c.cv.notify_one();
}

void
ClusterWorker::writerLoop(Conn &c)
{
    std::vector<double> y; // output scratch, reused for every response
    std::vector<uint8_t> *tx = c.io.txBuffer();
    for (;;) {
        Item item;
        {
            std::unique_lock<std::mutex> lk(c.mu);
            c.cv.wait(lk, [&c] { return c.closed || !c.q.empty(); });
            if (c.q.empty())
                break; // closed and fully drained
            item = std::move(c.q.front());
            c.q.pop_front();
        }

        switch (item.kind) {
          case Item::Kind::HelloAck: {
            HelloAckMsg ack;
            ack.in_size = server_->inSize();
            ack.out_size = server_->outSize();
            ack.layers = model_.layerCount();
            ack.pid = static_cast<uint32_t>(::getpid());
            encodeHelloAck(ack, tx);
            break;
          }
          case Item::Kind::HealthReport:
            encodeHealthReport(item.health, tx);
            break;
          case Item::Kind::Rejected:
            encodeInferResponse(
                item.req_id,
                static_cast<uint32_t>(serve::RequestStatus::Rejected),
                nullptr, 0, tx);
            break;
          case Item::Kind::Ticket: {
            // Every accepted ticket is waited even when the peer is
            // gone: slots must recycle and the done/shed accounting
            // must stay exact.
            const serve::RequestStatus st =
                server_->wait(item.ticket, &y);
            in_flight_.fetch_sub(1);
            const bool done = st == serve::RequestStatus::Done;
            (done ? done_ : shed_).fetch_add(1);
            encodeInferResponse(item.req_id, static_cast<uint32_t>(st),
                                y.data(), done ? y.size() : 0, tx);
            break;
          }
          case Item::Kind::DrainAck:
            encodeFrame(WireType::DrainAck, nullptr, 0, tx);
            break;
        }

        std::string err;
        if (c.io.open() && !c.io.sendEncoded(opts_.io_timeout_ms, &err))
            TIE_WARN_ONCE("cluster worker: send failed: ", err);

        if (item.kind == Item::Kind::DrainAck) {
            // All prior responses are out; the server backlog from
            // this connection is terminal. Publish the drained state
            // for waitDrained()/tie_worker.
            {
                std::lock_guard<std::mutex> lk(drain_mu_);
                drained_.store(true, std::memory_order_relaxed);
            }
            drain_cv_.notify_all();
        }
    }
    // Every response this connection owed is out: let the peer see
    // the end of the stream now (a dropped corrupt client reads EOF)
    // rather than when the worker stops and closes the fd.
    ::shutdown(c.io.fd(), SHUT_RDWR);
}

} // namespace cluster
} // namespace tie
