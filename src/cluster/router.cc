#include "cluster/router.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/logging.hh"

namespace tie {
namespace cluster {

namespace {

/** Poll tick for loops that must notice stop_flag_ promptly. */
constexpr int kTickMs = 50;

/** Waited-out request nodes kept for reuse; more are freed. */
constexpr size_t kMaxSpareNodes = 64;

} // namespace

const char *
toString(ClusterStatus s)
{
    switch (s) {
      case ClusterStatus::Done:
        return "Done";
      case ClusterStatus::TimedOut:
        return "TimedOut";
      case ClusterStatus::Shed:
        return "Shed";
    }
    return "?";
}

Router::Router(RouterOptions opts) : opts_(std::move(opts))
{
    TIE_CHECK_ARG(!opts_.workers.empty(),
                  "Router needs at least one worker endpoint");
    TIE_CHECK_ARG(opts_.max_redispatch >= 1,
                  "Router max_redispatch must be >= 1");
    for (const Endpoint &ep : opts_.workers) {
        auto r = std::make_unique<Replica>();
        r->endpoint = ep;
        replicas_.push_back(std::move(r));
    }
    spare_.reserve(kMaxSpareNodes);
}

Router::~Router()
{
    stop();
}

bool
Router::attachReplica(size_t idx, std::string *error)
{
    Replica &r = *replicas_[idx];
    // A previous incarnation's receiver may still be winding down.
    if (r.receiver.joinable())
        r.receiver.join();
    // A sender that picked this replica before it died may still be
    // about to write to the old connection.
    std::lock_guard<std::mutex> slk(r.send_mu);

    std::string err;
    const int dfd =
        connectTimed(r.endpoint, opts_.connect_timeout_ms, &err);
    if (dfd < 0) {
        if (error != nullptr)
            *error = err;
        return false;
    }
    const int hfd =
        connectTimed(r.endpoint, opts_.connect_timeout_ms, &err);
    if (hfd < 0) {
        ::close(dfd);
        if (error != nullptr)
            *error = err;
        return false;
    }
    // Each connection accepts no payload larger than the biggest
    // message it can legitimately carry; the data connection widens
    // to a full response once the handshake names the model.
    r.data.reset(dfd);
    r.data.setMaxPayload(kHelloAckPayload);
    r.health.reset(hfd);
    r.health.setMaxPayload(kHealthReportPayload);

    // Handshake on the data connection: the ack pins the model
    // interface this replica serves.
    WireFrame ack;
    if (!r.data.sendFrame(WireType::Hello, nullptr, 0,
                          opts_.io_timeout_ms, &err) ||
        r.data.recvFrame(&ack, opts_.io_timeout_ms, &err) !=
            FrameConn::RecvStatus::Ok ||
        ack.type != WireType::HelloAck) {
        r.data.close();
        r.health.close();
        if (error != nullptr)
            *error = strCat("handshake with ", r.endpoint.toString(),
                            " failed: ", err);
        return false;
    }
    HelloAckMsg hello;
    if (!decodeHelloAck(ack, &hello)) {
        r.data.close();
        r.health.close();
        if (error != nullptr)
            *error = strCat("bad HelloAck from ",
                            r.endpoint.toString());
        return false;
    }
    if (in_size_ == 0 && out_size_ == 0) {
        in_size_ = hello.in_size;
        out_size_ = hello.out_size;
    } else if (hello.in_size != in_size_ ||
               hello.out_size != out_size_) {
        // A replica serving a different model would silently break
        // the any-replica-same-bits contract; refuse it outright.
        r.data.close();
        r.health.close();
        if (error != nullptr)
            *error = strCat("replica ", r.endpoint.toString(),
                            " serves a different model: ",
                            hello.in_size, "->", hello.out_size,
                            " vs ", in_size_, "->", out_size_);
        return false;
    }

    r.data.setMaxPayload(
        std::max<uint64_t>(kHelloAckPayload, inferPayloadSize(out_size_)));
    r.drain_acked.store(false, std::memory_order_relaxed);
    r.reported_load.store(0, std::memory_order_relaxed);
    r.alive.store(true, std::memory_order_release);
    r.receiver = std::thread([this, idx] { receiverLoop(idx); });
    return true;
}

void
Router::detachReplica(size_t idx)
{
    std::lock_guard<std::mutex> lk(mu_);
    detachLocked(idx);
}

void
Router::detachLocked(size_t idx)
{
    Replica &r = *replicas_[idx];
    if (r.alive.exchange(false)) {
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.worker_deaths;
    }
    // Kick the receiver off its poll; fds are closed only after the
    // thread is joined (by attachReplica or stop).
    if (r.data.open())
        ::shutdown(r.data.fd(), SHUT_RDWR);
    failOverLocked(idx);
}

bool
Router::start(std::string *error)
{
    TIE_REQUIRE(!started_, "Router::start called twice");
    std::string first_err = "no workers configured";
    size_t live = 0;
    for (size_t i = 0; i < replicas_.size(); ++i) {
        std::string err;
        if (attachReplica(i, &err)) {
            ++live;
        } else {
            TIE_WARN("router: worker ",
                     replicas_[i]->endpoint.toString(),
                     " not reachable at start: ", err);
            if (live == 0)
                first_err = err;
        }
    }
    if (live == 0) {
        if (error != nullptr)
            *error = strCat("no live workers: ", first_err);
        return false;
    }
    started_ = true;
    monitor_ = std::thread([this] { monitorLoop(); });
    return true;
}

void
Router::stop()
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;
    stop_flag_.store(true, std::memory_order_relaxed);
    if (monitor_.joinable())
        monitor_.join();
    for (size_t i = 0; i < replicas_.size(); ++i) {
        Replica &r = *replicas_[i];
        r.alive.store(false, std::memory_order_relaxed);
        if (r.data.open())
            ::shutdown(r.data.fd(), SHUT_RDWR);
        if (r.receiver.joinable())
            r.receiver.join();
        std::lock_guard<std::mutex> slk(r.send_mu);
        r.data.close();
        r.health.close();
    }
    // Anything still pending has no replica left to answer it; shed
    // explicitly so every wait() returns.
    std::lock_guard<std::mutex> lk(mu_);
    for (auto &kv : pending_) {
        if (!kv.second.terminal)
            completeLocked(kv.second, ClusterStatus::Shed);
    }
}

int
Router::pickReplica(int skip)
{
    int best = -1;
    uint64_t best_load = std::numeric_limits<uint64_t>::max();
    for (size_t i = 0; i < replicas_.size(); ++i) {
        Replica &r = *replicas_[i];
        if (static_cast<int>(i) == skip ||
            !r.alive.load(std::memory_order_acquire))
            continue;
        // Load = what the router has in flight there plus what the
        // replica last reported queued locally (other routers, the
        // batcher backlog).
        const uint64_t load =
            r.outstanding.load(std::memory_order_relaxed) +
            r.reported_load.load(std::memory_order_relaxed);
        if (load < best_load) {
            best_load = load;
            best = static_cast<int>(i);
        }
    }
    return best;
}

void
Router::dispatch(std::unique_lock<std::mutex> &lk, uint64_t id, Pending &p)
{
    while (!p.terminal && p.replica < 0) {
        const int r = stop_flag_.load(std::memory_order_relaxed)
                          ? -1
                          : pickReplica(p.skip);
        if (r < 0 || p.attempts >= opts_.max_redispatch) {
            completeLocked(p, ClusterStatus::Shed);
            return;
        }
        if (p.attempts++ > 0) {
            std::lock_guard<std::mutex> slk(stats_mu_);
            ++stats_.redispatched;
        }
        Replica &rep = *replicas_[r];
        p.replica = r;
        rep.outstanding.fetch_add(1, std::memory_order_relaxed);
        // Send with mu_ released: a send blocks while the worker is
        // not reading, and the worker may be waiting for its responses
        // to be read, so the receivers must never wait for mu_ behind
        // it. Only the owner touches p.x, and only the owner waits the
        // node out, so p stays put meanwhile.
        lk.unlock();
        std::string err;
        bool sent = false;
        {
            // Encode straight from the retained input into the
            // replica's reused tx buffer, which send_mu guards with the
            // socket.
            std::lock_guard<std::mutex> slk(rep.send_mu);
            if (rep.data.open()) {
                encodeInferRequest(id, p.deadline_us, p.x.data(),
                                   p.x.size(), rep.data.txBuffer());
                sent = rep.data.sendEncoded(opts_.io_timeout_ms, &err);
            }
        }
        lk.lock();
        if (!sent) {
            TIE_WARN_ONCE("router: dispatch to ", rep.endpoint.toString(),
                          " failed: ", err);
            // The replica's connection is gone, though neither its
            // receiver nor the monitor may have seen it yet: retire it,
            // which hands p back (p.replica = -1) for the next try.
            // Re-sending to a different replica is sound because
            // inference is pure and replicas are bit-identical.
            if (p.replica == r)
                detachLocked(static_cast<size_t>(r));
        }
    }
}

void
Router::completeLocked(Pending &p, ClusterStatus st,
                       const std::vector<double> *y)
{
    if (p.replica >= 0) {
        replicas_[p.replica]->outstanding.fetch_sub(
            1, std::memory_order_relaxed);
        p.replica = -1;
    }
    p.terminal = true;
    p.status = st;
    if (y != nullptr)
        p.y.assign(y->begin(), y->end());
    {
        std::lock_guard<std::mutex> lk(stats_mu_);
        switch (st) {
          case ClusterStatus::Done:
            ++stats_.done;
            break;
          case ClusterStatus::TimedOut:
            ++stats_.timed_out;
            break;
          case ClusterStatus::Shed:
            ++stats_.shed;
            break;
        }
    }
    done_cv_.notify_all();
}

void
Router::failOverLocked(size_t idx)
{
    for (auto &kv : pending_) {
        Pending &p = kv.second;
        if (p.terminal || p.replica != static_cast<int>(idx))
            continue;
        // The old owner is dead; its outstanding count dies with it.
        // The request's owner re-sends it (dispatch) or sheds it.
        replicas_[idx]->outstanding.fetch_sub(
            1, std::memory_order_relaxed);
        p.replica = -1;
        p.skip = -1;
    }
    done_cv_.notify_all();
}

ClusterTicket
Router::submit(const double *x, uint64_t deadline_us)
{
    TIE_CHECK_ARG(x != nullptr, "Router::submit: null input");
    std::unique_lock<std::mutex> lk(mu_);
    if (stop_flag_.load(std::memory_order_relaxed) ||
        pickReplica() < 0) {
        // Stopped, or no live replica: explicit shed at the door, like
        // a full RequestQueue — the caller sees it, nothing hangs.
        std::lock_guard<std::mutex> slk(stats_mu_);
        ++stats_.shed;
        return {};
    }
    const uint64_t id = next_id_++;
    PendingMap::iterator it;
    if (spare_.empty()) {
        it = pending_.try_emplace(id).first;
    } else {
        PendingMap::node_type node = std::move(spare_.back());
        spare_.pop_back();
        node.key() = id;
        it = pending_.insert(std::move(node)).position;
    }
    Pending &p = it->second;
    p.x.assign(x, x + in_size_);
    p.deadline_us = deadline_us;
    p.attempts = 0;
    p.replica = -1;
    p.skip = -1;
    p.terminal = false;
    p.status = ClusterStatus::Shed;
    dispatch(lk, id, p);
    // Shed already: no replica took it. Hand it back as an invalid
    // ticket, as at the door (completeLocked has counted the shed).
    if (p.terminal && p.status == ClusterStatus::Shed) {
        recycleLocked(it);
        return {};
    }
    std::lock_guard<std::mutex> slk(stats_mu_);
    ++stats_.accepted;
    return ClusterTicket{id};
}

ClusterStatus
Router::wait(ClusterTicket t, std::vector<double> *out)
{
    if (!t.valid())
        return ClusterStatus::Shed;
    std::unique_lock<std::mutex> lk(mu_);
    auto it = pending_.find(t.id);
    TIE_CHECK_ARG(it != pending_.end(),
                  "Router::wait: unknown or already-waited ticket ",
                  t.id);
    Pending &p = it->second;
    for (;;) {
        // A request its replica refused or lost comes back here, to
        // its owner, to be sent on or shed.
        dispatch(lk, t.id, p);
        if (p.terminal)
            break;
        done_cv_.wait(lk, [&] { return p.terminal || p.replica < 0; });
    }
    const ClusterStatus st = p.status;
    // Swapping hands the caller the output and keeps the caller's old
    // buffer for the next request this node carries.
    if (st == ClusterStatus::Done && out != nullptr)
        out->swap(p.y);
    recycleLocked(it);
    return st;
}

void
Router::recycleLocked(PendingMap::iterator it)
{
    PendingMap::node_type node = pending_.extract(it);
    if (spare_.size() < kMaxSpareNodes)
        spare_.push_back(std::move(node));
}

size_t
Router::liveWorkers() const
{
    size_t n = 0;
    for (const auto &r : replicas_)
        if (r->alive.load(std::memory_order_acquire))
            ++n;
    return n;
}

void
Router::receiverLoop(size_t idx)
{
    Replica &r = *replicas_[idx];
    for (;;) {
        if (stop_flag_.load(std::memory_order_relaxed))
            return;
        if (!r.alive.load(std::memory_order_acquire))
            return;
        WireFrame f;
        std::string err;
        const FrameConn::RecvStatus st =
            r.data.recvFrame(&f, kTickMs, &err);
        if (st == FrameConn::RecvStatus::Timeout)
            continue;
        if (st != FrameConn::RecvStatus::Ok) {
            if (st == FrameConn::RecvStatus::Corrupt)
                TIE_WARN("router: corrupt frame from ",
                         r.endpoint.toString(), ": ", err);
            break;
        }
        if (f.type == WireType::DrainAck) {
            r.drain_acked.store(true, std::memory_order_release);
            continue;
        }
        if (f.type != WireType::InferResponse) {
            TIE_WARN("router: unexpected ",
                     static_cast<uint32_t>(f.type), " frame from ",
                     r.endpoint.toString());
            break;
        }
        InferResponseMsg &resp = r.resp;
        if (!decodeInferResponse(f, &resp)) {
            TIE_WARN("router: malformed InferResponse from ",
                     r.endpoint.toString());
            break;
        }

        std::lock_guard<std::mutex> lk(mu_);
        auto it = pending_.find(resp.req_id);
        if (it == pending_.end() || it->second.terminal ||
            it->second.replica != static_cast<int>(idx)) {
            // Stale: the request was re-dispatched elsewhere (or
            // already answered). Outputs are bit-identical across
            // replicas, so dropping the duplicate loses nothing.
            continue;
        }
        Pending &p = it->second;
        const auto status =
            static_cast<serve::RequestStatus>(resp.status);
        if (status == serve::RequestStatus::Done &&
            resp.y.size() == out_size_) {
            completeLocked(p, ClusterStatus::Done, &resp.y);
        } else if (status == serve::RequestStatus::TimedOut) {
            // The worker's own deadline fired; retrying would only
            // serve an answer that is already late.
            completeLocked(p, ClusterStatus::TimedOut);
        } else {
            // Rejected (admission control / draining) or garbage:
            // its owner gives another replica a chance before
            // shedding. The receiver itself never sends, so it keeps
            // reading this replica's responses.
            r.outstanding.fetch_sub(1, std::memory_order_relaxed);
            p.replica = -1;
            p.skip = static_cast<int>(idx);
            done_cv_.notify_all();
        }
    }
    // The connection is gone: every request this replica still owes
    // gets re-dispatched or shed right now, so no wait() can hang on
    // a dead worker.
    detachReplica(idx);
}

void
Router::monitorLoop()
{
    while (!stop_flag_.load(std::memory_order_relaxed)) {
        for (size_t i = 0; i < replicas_.size(); ++i) {
            if (stop_flag_.load(std::memory_order_relaxed))
                return;
            Replica &r = *replicas_[i];
            if (!r.alive.load(std::memory_order_acquire)) {
                // Chaos recovery: keep knocking until the restarted
                // worker answers, then fold it back into dispatch.
                std::string err;
                if (attachReplica(i, &err)) {
                    std::lock_guard<std::mutex> lk(stats_mu_);
                    ++stats_.reconnects;
                }
                continue;
            }
            std::string err;
            WireFrame f;
            HealthReportMsg rep;
            const bool ok =
                r.health.sendFrame(WireType::HealthCheck, nullptr, 0,
                                   opts_.health_timeout_ms, &err) &&
                r.health.recvFrame(&f, opts_.health_timeout_ms,
                                   &err) ==
                    FrameConn::RecvStatus::Ok &&
                f.type == WireType::HealthReport &&
                decodeHealthReport(f, &rep);
            if (!ok) {
                TIE_WARN("router: worker ", r.endpoint.toString(),
                         " failed health check (", err,
                         "); failing over");
                detachReplica(i);
                continue;
            }
            r.reported_load.store(rep.queue_depth,
                                  std::memory_order_relaxed);
        }
        // Sleep one period in stop-aware ticks.
        int left = opts_.health_period_ms;
        while (left > 0 &&
               !stop_flag_.load(std::memory_order_relaxed)) {
            const int step = left < kTickMs ? left : kTickMs;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(step));
            left -= step;
        }
    }
}

void
Router::drainWorkers(int timeout_ms)
{
    std::vector<size_t> sent;
    for (size_t i = 0; i < replicas_.size(); ++i) {
        Replica &r = *replicas_[i];
        if (!r.alive.load(std::memory_order_acquire))
            continue;
        std::string err;
        bool ok;
        {
            std::lock_guard<std::mutex> lk(r.send_mu);
            ok = r.data.open() &&
                 r.data.sendFrame(WireType::Drain, nullptr, 0,
                                  opts_.io_timeout_ms, &err);
        }
        if (ok)
            sent.push_back(i);
        else
            TIE_WARN("router: Drain send to ",
                     r.endpoint.toString(), " failed: ", err);
    }
    // Acks arrive on the data connections via the receiver threads.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    for (size_t i : sent) {
        Replica &r = *replicas_[i];
        while (!r.drain_acked.load(std::memory_order_acquire) &&
               r.alive.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    }
}

RouterStats
Router::stats() const
{
    std::lock_guard<std::mutex> lk(stats_mu_);
    return stats_;
}

} // namespace cluster
} // namespace tie
