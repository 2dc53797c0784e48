/**
 * @file
 * Cluster router: shards inference requests across K worker replicas
 * over the wire protocol, with health checks, load-aware dispatch and
 * fail-over.
 *
 * The client API mirrors serve::Server (submit -> ClusterTicket ->
 * wait), so the load generator drives a cluster exactly like a single
 * process. Internally each replica gets two connections: a data
 * connection (a receiver thread matches InferResponses to pending
 * requests by id) and a health connection (a monitor thread probes
 * HealthCheck/HealthReport on a period, marks replicas dead on
 * timeout/error, and keeps trying to reconnect dead ones — which is
 * how a chaos-restarted worker rejoins the fleet).
 *
 * **Zero lost accepted requests.** Once submit() returns a valid
 * ticket the request has exactly one terminal outcome: Done (bits
 * from some replica), TimedOut (the worker's deadline fired), or
 * Shed (explicitly refused). When a replica dies with requests
 * outstanding, the router re-dispatches them to live replicas —
 * sound because inference is pure and every replica serves the same
 * artifact with the same deterministic kernels (the PR 4 invariant:
 * any replica, same bits) — and only sheds when no replica is left.
 * A Rejected response from one replica is likewise retried elsewhere
 * before being shed. wait() can therefore never hang on a dead
 * worker, and done + shed == accepted always holds (asserted by the
 * chaos harness, tie_cli cluster-bench --chaos).
 *
 * **Sends never hold up reads.** A request is sent, and re-sent, by
 * the thread that owns it (submit, then wait), with only the
 * replica's send lock held: receivers never send and never wait
 * behind a send, because a worker stops reading while its responses
 * go unread (worker.hh).
 *
 * **One copy per hop.** submit encodes a request once and every
 * dispatch sends those bytes; receivers copy outputs straight in.
 *
 * **A slot table, one wake per response.** Requests live in reused
 * slots; a ticket id (also the wire req_id) is (generation << 32) |
 * slot, and a freed slot moves to its next generation, so an answer
 * or a wait naming another one finds nothing. A response wakes only
 * its slot's owner. One mutex guards slots, loads and stats.
 */

#ifndef TIE_CLUSTER_ROUTER_HH
#define TIE_CLUSTER_ROUTER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/socket.hh"
#include "serve/request.hh"

namespace tie {
namespace cluster {

struct RouterOptions
{
    std::vector<Endpoint> workers; ///< replica addresses

    int io_timeout_ms = 5000;

    /** Health probe period; liveness detection latency is about one
        period plus health_timeout_ms. */
    int health_period_ms = 100;
    int health_timeout_ms = 1000;
};

/** Handle to one in-flight cluster request. */
struct ClusterTicket
{
    uint64_t id = 0; ///< 0 = invalid (shed at submit)
    bool valid() const { return id != 0; }
};

/** Terminal outcome of one cluster request. */
enum class ClusterStatus : uint8_t
{
    Done,     ///< output available, bit-exact across replicas
    TimedOut, ///< the serving worker's enqueue deadline fired
    Shed,     ///< explicitly refused (no capacity / no live replica)
};

const char *toString(ClusterStatus s);

/** The load generator's view of a cluster outcome: Shed is rejected. */
inline serve::RequestStatus
toRequestStatus(ClusterStatus s)
{
    switch (s) {
      case ClusterStatus::Done:
        return serve::RequestStatus::Done;
      case ClusterStatus::TimedOut:
        return serve::RequestStatus::TimedOut;
      case ClusterStatus::Shed:
        break;
    }
    return serve::RequestStatus::Rejected;
}

/** Lifetime counters (monotonic; read any time). */
struct RouterStats
{
    uint64_t accepted = 0;     ///< valid tickets handed out
    uint64_t done = 0;         ///< completed with output
    uint64_t timed_out = 0;    ///< worker deadline expiries
    uint64_t shed = 0;         ///< explicit refusals
    uint64_t redispatched = 0; ///< fail-over re-sends
    uint64_t worker_deaths = 0; ///< replicas lost without a drain ack
    uint64_t reconnects = 0;   ///< successful replica (re)attaches
};

class Router
{
  public:
    explicit Router(RouterOptions opts);
    ~Router(); ///< stop()

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /**
     * Connect to every worker and handshake. Requires at least one
     * replica reachable and every reachable replica to agree on the
     * model interface (in/out sizes); unreachable ones stay dead and
     * are retried by the monitor. False + diagnostic when no replica
     * answers.
     */
    bool start(std::string *error = nullptr);

    /** Stop admitting, hand in-flight requests back to their owners
        to shed in wait(), join all threads. Idempotent. */
    void stop();

    /** Model interface discovered at handshake. */
    size_t inSize() const { return in_size_; }
    size_t outSize() const { return out_size_; }

    /**
     * Dispatch @p x (inSize values) to the least-loaded live replica;
     * a replica whose send fails is marked dead and the next one tried
     * (up to four attempts). Invalid ticket when no replica
     * takes it or the router is stopped — the explicit shed outcome,
     * counted in stats.
     */
    ClusterTicket submit(const double *x, uint64_t deadline_us = 0);

    /**
     * Block until the request is terminal, re-sending it meanwhile if
     * its replica refuses it or dies. Done copies the output into
     * @p out (resized). Each ticket is waited exactly once.
     */
    ClusterStatus wait(ClusterTicket t,
                       std::vector<double> *out = nullptr);

    /** Live replicas right now (monitor's view). */
    size_t liveWorkers() const;

    /**
     * Send Drain to every live replica and wait for the acks (up to
     * @p timeout_ms each). Workers finish accepted work, refuse new
     * work and — when run under tie_worker — exit afterwards.
     */
    void drainWorkers(int timeout_ms);

    RouterStats stats() const;

  private:
    struct Replica
    {
        Endpoint endpoint;
        FrameConn data;     ///< send_mu guards writes and reconnects
        FrameConn health;   ///< monitor thread only
        std::mutex send_mu; ///< serializes data-connection sends
        std::thread receiver;
        std::atomic<bool> alive{false};
        std::atomic<bool> drain_acked{false};
        uint64_t outstanding = 0; ///< router-side load (mu_)
        std::atomic<uint64_t> reported_load{0}; ///< from health
    };

    /**
     * One slot of the request table (guarded by mu_, except frame).
     * Slots are reused, so frame and y keep their capacity from one
     * request to the next. replica >= 0 only while a replica holds a
     * live, non-terminal request.
     */
    struct Pending
    {
        std::vector<uint8_t> frame; ///< its InferRequest (owner only)
        std::condition_variable wake; ///< its owner waits here
        uint32_t gen = 1;  ///< generation of its current or next ticket
        bool busy = false; ///< a ticket holds it
        int attempts = 0;
        int replica = -1; ///< replica holding it, -1 = none
        int skip = -1;    ///< replica that refused it, -1 = none
        bool terminal = false;
        ClusterStatus status = ClusterStatus::Shed;
        std::vector<double> y;
    };

    bool attachReplica(size_t idx, std::string *error);
    void detachLocked(size_t idx); ///< mark dead + fail over, mu_ held
    void receiverLoop(size_t idx);
    void monitorLoop();
    /** Least-loaded live replica other than @p skip; -1 when none. */
    int pickReplica(int skip = -1);
    /**
     * Send @p p, unless a replica holds it or it is terminal, to the
     * least-loaded live replica other than p.skip. A replica whose
     * send fails is retired (detachLocked) and the next one tried,
     * until a send succeeds or p.attempts reaches kMaxDispatches,
     * when p is shed; every attempt after p's first is counted as a
     * re-dispatch. Only p's owner calls it (submit, then wait), with
     * @p lk held; the send itself runs with mu_ released.
     */
    void dispatch(std::unique_lock<std::mutex> &lk, Pending &p);
    /** Make @p p terminal (Done: p.y already holds the output). */
    void completeLocked(Pending &p, ClusterStatus st);
    /** Hand every pending request owned by @p idx back to its owner
        to re-dispatch or shed. */
    void failOverLocked(size_t idx);
    /** The busy slot ticket @p id names, or null. */
    Pending *findLocked(uint64_t id);
    /** Free @p slot and move it to its next generation. */
    void releaseLocked(uint32_t slot);

    RouterOptions opts_;
    std::vector<std::unique_ptr<Replica>> replicas_;
    size_t in_size_ = 0;
    size_t out_size_ = 0;

    mutable std::mutex mu_; ///< slots, loads, stats, stop_flag_ writes
    /** The monitor's period and drainWorkers' wait for acks: notified
        by stop(), a DrainAck and a replica's detach. */
    std::condition_variable cv_;
    std::deque<Pending> slots_; ///< only grows; references stay put
    std::vector<uint32_t> free_; ///< free slot indices
    RouterStats stats_;

    std::thread monitor_;
    std::atomic<bool> stop_flag_{false};
    bool started_ = false;
    bool stopped_ = false;
};

} // namespace cluster
} // namespace tie

#endif // TIE_CLUSTER_ROUTER_HH
