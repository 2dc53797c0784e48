#include "cluster/router.hh"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/logging.hh"

namespace tie {
namespace cluster {

namespace {

/** Longest a (re)connect to a replica may take. */
constexpr int kConnectTimeoutMs = 2000;

/** Sends of one request, each to the least-loaded live replica,
    before it is shed. */
constexpr int kMaxDispatches = 4;

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
    for (const Endpoint &ep : opts_.workers) {
        auto r = std::make_unique<Replica>();
        r->endpoint = ep;
        replicas_.push_back(std::move(r));
    }
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
    auto refuse = [&](std::string msg) {
        r.data.close();
        r.health.close();
        *error = std::move(msg);
        return false;
    };

    std::string err;
    const int dfd = connectTimed(r.endpoint, kConnectTimeoutMs, &err);
    const int hfd =
        dfd < 0 ? -1 : connectTimed(r.endpoint, kConnectTimeoutMs, &err);
    // Each connection accepts no payload larger than the biggest
    // message it can legitimately carry; the data connection widens
    // to a full response once the handshake names the model.
    r.data.reset(dfd);
    r.data.setMaxPayload(kHelloAckPayload);
    r.health.reset(hfd);
    r.health.setMaxPayload(kHealthReportPayload);
    if (hfd < 0)
        return refuse(err);

    // Handshake on the data connection: the ack pins the model
    // interface this replica serves.
    WireFrame ack;
    if (!r.data.sendFrame(WireType::Hello, nullptr, 0,
                          opts_.io_timeout_ms, &err) ||
        r.data.recvFrame(&ack, opts_.io_timeout_ms, &err) !=
            FrameConn::RecvStatus::Ok ||
        ack.type != WireType::HelloAck)
        return refuse(strCat("handshake with ", r.endpoint.toString(),
                             " failed: ", err));
    HelloAckMsg hello;
    if (!decodeHelloAck(ack, &hello))
        return refuse(strCat("bad HelloAck from ", r.endpoint.toString()));
    if (in_size_ == 0 && out_size_ == 0) {
        in_size_ = hello.in_size;
        out_size_ = hello.out_size;
    } else if (hello.in_size != in_size_ ||
               hello.out_size != out_size_) {
        // A replica serving a different model would silently break
        // the any-replica-same-bits contract; refuse it outright.
        return refuse(strCat("replica ", r.endpoint.toString(),
                             " serves a different model: ",
                             hello.in_size, "->", hello.out_size, " vs ",
                             in_size_, "->", out_size_));
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
Router::detachLocked(size_t idx)
{
    Replica &r = *replicas_[idx];
    // A replica that acked a drain exits by design; its EOF is no death.
    if (r.alive.exchange(false) &&
        !r.drain_acked.load(std::memory_order_acquire))
        ++stats_.worker_deaths;
    // End the receiver's read; fds are closed only after the thread is
    // joined (by attachReplica or stop).
    if (r.data.open())
        ::shutdown(r.data.fd(), SHUT_RDWR);
    failOverLocked(idx);
    cv_.notify_all(); // a drain waiting on this replica is over
}

bool
Router::start(std::string *error)
{
    TIE_REQUIRE(!started_, "Router::start called twice");
    std::string err;
    size_t live = 0;
    for (size_t i = 0; i < replicas_.size(); ++i) {
        if (attachReplica(i, &err))
            ++live;
        else
            TIE_WARN("router: worker ",
                     replicas_[i]->endpoint.toString(),
                     " not reachable at start: ", err);
    }
    if (live == 0) {
        if (error != nullptr)
            *error = strCat("no live workers: ", err);
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
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_flag_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
    monitor_.join();
    // Each receiver, ended by the shutdown, detaches its replica: the
    // requests it held go back to their owners, whose dispatch sheds
    // them now that stop_flag_ is set.
    for (const auto &rp : replicas_) {
        Replica &r = *rp;
        r.alive.store(false, std::memory_order_relaxed);
        if (r.data.open())
            ::shutdown(r.data.fd(), SHUT_RDWR);
        if (r.receiver.joinable())
            r.receiver.join();
        std::lock_guard<std::mutex> slk(r.send_mu);
        r.data.close();
        r.health.close();
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
            r.outstanding +
            r.reported_load.load(std::memory_order_relaxed);
        if (load < best_load) {
            best_load = load;
            best = static_cast<int>(i);
        }
    }
    return best;
}

void
Router::dispatch(std::unique_lock<std::mutex> &lk, Pending &p)
{
    while (!p.terminal && p.replica < 0) {
        const int r = stop_flag_.load(std::memory_order_relaxed)
                          ? -1
                          : pickReplica(p.skip);
        if (r < 0 || p.attempts >= kMaxDispatches) {
            completeLocked(p, ClusterStatus::Shed);
            return;
        }
        if (p.attempts++ > 0)
            ++stats_.redispatched;
        Replica &rep = *replicas_[r];
        p.replica = r;
        ++rep.outstanding;
        // Send with mu_ released: a send blocks while the worker is
        // not reading, and the worker may be waiting for its responses
        // to be read, so the receivers must never wait for mu_ behind
        // it. Only the owner touches p.frame or frees the slot, and
        // slots never move.
        lk.unlock();
        std::string err;
        bool sent = false;
        {
            std::lock_guard<std::mutex> slk(rep.send_mu);
            sent = rep.data.open() &&
                   rep.data.send(p.frame, opts_.io_timeout_ms, &err);
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
Router::completeLocked(Pending &p, ClusterStatus st)
{
    if (p.replica >= 0) {
        --replicas_[p.replica]->outstanding;
        p.replica = -1;
    }
    p.terminal = true;
    p.status = st;
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
    p.wake.notify_one();
}

void
Router::failOverLocked(size_t idx)
{
    for (Pending &p : slots_) {
        if (p.replica != static_cast<int>(idx))
            continue;
        // The old holder is dead; its outstanding count dies with it.
        // The request's owner re-sends it (dispatch) or sheds it.
        --replicas_[idx]->outstanding;
        p.replica = -1;
        p.skip = -1;
        p.wake.notify_one();
    }
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
        ++stats_.shed;
        return {};
    }
    if (free_.empty()) {
        free_.push_back(static_cast<uint32_t>(slots_.size()));
        slots_.emplace_back();
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    Pending &p = slots_[slot];
    const uint64_t id = uint64_t{p.gen} << 32 | slot;
    encodeInferRequest(id, deadline_us, x, in_size_, &p.frame);
    p.busy = true;
    p.attempts = 0;
    p.skip = -1;
    p.terminal = false;
    dispatch(lk, p);
    // Shed already: no replica took it. Hand it back as an invalid
    // ticket, as at the door (completeLocked has counted the shed).
    if (p.terminal && p.status == ClusterStatus::Shed) {
        releaseLocked(slot);
        return {};
    }
    ++stats_.accepted;
    return ClusterTicket{id};
}

ClusterStatus
Router::wait(ClusterTicket t, std::vector<double> *out)
{
    if (!t.valid())
        return ClusterStatus::Shed;
    std::unique_lock<std::mutex> lk(mu_);
    Pending *found = findLocked(t.id);
    TIE_CHECK_ARG(found != nullptr,
                  "Router::wait: unknown or already-waited ticket ",
                  t.id);
    Pending &p = *found;
    for (;;) {
        // A request its replica refused or lost comes back here, to
        // its owner, to be sent on or shed.
        dispatch(lk, p);
        if (p.terminal)
            break;
        p.wake.wait(lk, [&] { return p.terminal || p.replica < 0; });
    }
    const ClusterStatus st = p.status;
    // Swapping hands the caller the output and keeps the caller's old
    // buffer for the next request this slot carries.
    if (st == ClusterStatus::Done && out != nullptr)
        out->swap(p.y);
    releaseLocked(static_cast<uint32_t>(t.id));
    return st;
}

Router::Pending *
Router::findLocked(uint64_t id)
{
    const uint64_t slot = id & 0xffffffffu;
    if (slot >= slots_.size())
        return nullptr;
    Pending &p = slots_[slot];
    return p.busy && p.gen == id >> 32 ? &p : nullptr;
}

void
Router::releaseLocked(uint32_t slot)
{
    Pending &p = slots_[slot];
    p.busy = false;
    // Generation 0 is skipped so that no ticket id is 0.
    p.gen = p.gen == UINT32_MAX ? 1 : p.gen + 1;
    free_.push_back(slot);
}

size_t
Router::liveWorkers() const
{
    return std::count_if(replicas_.begin(), replicas_.end(),
                         [](const auto &r) { return r->alive.load(); });
}

void
Router::receiverLoop(size_t idx)
{
    Replica &r = *replicas_[idx];
    WireFrame f;
    std::string err;
    while (r.alive.load(std::memory_order_acquire)) {
        // No deadline: stop() and detachLocked shut the socket down,
        // which ends the read as Closed.
        const FrameConn::RecvStatus st = r.data.recvFrame(&f, -1, &err);
        if (st != FrameConn::RecvStatus::Ok) {
            if (st == FrameConn::RecvStatus::Corrupt)
                TIE_WARN("router: corrupt frame from ",
                         r.endpoint.toString(), ": ", err);
            break;
        }
        if (f.type == WireType::DrainAck) {
            std::lock_guard<std::mutex> lk(mu_);
            r.drain_acked.store(true, std::memory_order_release);
            cv_.notify_all();
            continue;
        }
        if (f.type != WireType::InferResponse) {
            TIE_WARN("router: unexpected ",
                     static_cast<uint32_t>(f.type), " frame from ",
                     r.endpoint.toString());
            break;
        }
        InferResponseMsg resp;
        if (!decodeInferResponse(f, &resp)) {
            TIE_WARN("router: malformed InferResponse from ",
                     r.endpoint.toString());
            break;
        }

        std::lock_guard<std::mutex> lk(mu_);
        Pending *found = findLocked(resp.req_id);
        if (found == nullptr || found->replica != static_cast<int>(idx)) {
            // Stale: another generation of the slot, or re-dispatched
            // elsewhere, or answered. Outputs are bit-identical across
            // replicas, so dropping the duplicate loses nothing.
            continue;
        }
        Pending &p = *found;
        const auto status =
            static_cast<serve::RequestStatus>(resp.status);
        if (status == serve::RequestStatus::Done && resp.n == out_size_) {
            p.y.resize(out_size_);
            loadWireF64s(resp.values, resp.n, p.y.data());
            completeLocked(p, ClusterStatus::Done);
        } else if (status == serve::RequestStatus::TimedOut) {
            // The worker's own deadline fired; retrying would only
            // serve an answer that is already late.
            completeLocked(p, ClusterStatus::TimedOut);
        } else {
            // Rejected (admission control / draining) or garbage:
            // its owner gives another replica a chance before
            // shedding. The receiver itself never sends, so it keeps
            // reading this replica's responses.
            --r.outstanding;
            p.replica = -1;
            p.skip = static_cast<int>(idx);
            p.wake.notify_one();
        }
    }
    // The connection is gone: every request this replica still owes
    // gets re-dispatched or shed right now, so no wait() can hang on
    // a dead worker.
    std::lock_guard<std::mutex> lk(mu_);
    detachLocked(idx);
}

void
Router::monitorLoop()
{
    for (;;) {
        for (size_t i = 0; i < replicas_.size(); ++i) {
            if (stop_flag_.load(std::memory_order_relaxed))
                return;
            Replica &r = *replicas_[i];
            if (!r.alive.load(std::memory_order_acquire)) {
                // Chaos recovery: keep knocking until the restarted
                // worker answers, then fold it back into dispatch.
                std::string err;
                if (attachReplica(i, &err)) {
                    std::lock_guard<std::mutex> lk(mu_);
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
                std::lock_guard<std::mutex> lk(mu_);
                detachLocked(i);
                continue;
            }
            r.reported_load.store(rep.queue_depth,
                                  std::memory_order_relaxed);
        }
        std::unique_lock<std::mutex> lk(mu_);
        const auto period = std::chrono::milliseconds(opts_.health_period_ms);
        if (cv_.wait_for(lk, period, [this] { return stop_flag_.load(); }))
            return;
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
    // Acks arrive on the data connections via the receiver threads,
    // which notify cv_, as does a replica's detach.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    std::unique_lock<std::mutex> lk(mu_);
    for (size_t i : sent) {
        Replica &r = *replicas_[i];
        cv_.wait_until(lk, deadline, [&r] {
            return r.drain_acked.load(std::memory_order_acquire) ||
                   !r.alive.load(std::memory_order_acquire);
        });
    }
}

RouterStats
Router::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

} // namespace cluster
} // namespace tie
