/**
 * @file
 * The deterministic load generator: one driver for every serving
 * target.
 *
 * A target is any type with inSize(), submit(x, deadline_us) and
 * wait(ticket, out[, timing]) (the LoadTarget concept):
 * serve::Server as is, one ModelRegistry name (RegistryTenant), or a
 * cluster::Router, whose ClusterStatus maps through toRequestStatus.
 * runLoadGen drives a list of N tenants. Request i goes to tenant
 * i % N with input makeRequestInput(seed, i, inSize), so a single
 * model is a one-tenant mix, and a fixed (tenant order, seed,
 * requests) triple yields the same per-tenant streams whatever the
 * client count.
 *
 *  - **Closed loop** (offered_qps == 0): @p clients threads each keep
 *    exactly one request outstanding (submit, wait, repeat).
 *    Throughput is whatever the targets sustain; latency is the
 *    client-observed end-to-end time (submit to wait-return).
 *  - **Open loop** (offered_qps > 0): a pacer thread submits at the
 *    offered rate with exponentially-distributed (seeded) gaps,
 *    regardless of completions, so queueing, deadline expiry and
 *    admission rejection actually show. Latency is the server-side
 *    RequestTiming (queue wait + service), which a lagging collector
 *    cannot distort; only targets that report it run open loop.
 *
 * When the caller supplies oracles (referenceOutputs, one per
 * tenant), every Done output is compared **bit-exactly** and
 * mismatches counted. Every submitted request ends in exactly one of
 * completed / rejected / timed_out.
 */

#ifndef TIE_SERVE_LOAD_GEN_HH
#define TIE_SERVE_LOAD_GEN_HH

#include <atomic>
#include <chrono>
#include <cmath>
#include <concepts>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "serve/server.hh"

namespace tie {
namespace obs {
class JsonWriter;
}
namespace serve {

struct LoadGenOptions
{
    size_t requests = 256; ///< total, interleaved across tenants
    size_t clients = 4;    ///< closed-loop client threads (>= 1)
    double offered_qps = 0; ///< > 0 selects the open loop
    uint64_t deadline_us = 0; ///< enqueue deadline per request (0: none)
    uint64_t seed = 1;        ///< request-stream seed
};

/** Exact sample statistics (sorted-sample percentiles, not binned). */
struct LatencySummary
{
    double mean = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double max = 0;
};

struct LoadGenReport
{
    bool open_loop = false;
    size_t submitted = 0;
    size_t completed = 0;
    size_t rejected = 0;
    size_t timed_out = 0;
    size_t mismatched = 0; ///< Done outputs differing from reference
    double wall_s = 0;
    double offered_qps = 0;  ///< 0 for closed loop
    double achieved_qps = 0; ///< completed / wall_s
    LatencySummary latency;  ///< e2e (closed) / server-side (open)
    LatencySummary queue_wait; ///< RequestTiming.queue_wait_us
    LatencySummary service;    ///< RequestTiming.service_us
    /** Aligned with the tenant list; this report is their aggregate
        (the entries themselves leave it empty). */
    std::vector<LoadGenReport> per_tenant;
};

/**
 * Batch-1 reference outputs of one tenant's requests: entry j is
 * global request j * n_tenants + slot.
 */
using Oracle = std::vector<std::vector<double>>;

/** Deterministic input for request @p index: N uniform [-1, 1). */
std::vector<double> makeRequestInput(uint64_t seed, size_t index,
                                     size_t n);

/**
 * The oracle for tenant @p slot of @p n_tenants over requests
 * [0, requests) through the layer chain. Slot 0 of 1 is the whole
 * single-model stream.
 */
Oracle referenceOutputs(const std::vector<TtLayerViewD> &model,
                        size_t slot, size_t n_tenants, uint64_t seed,
                        size_t requests);

/**
 * Exact summary of @p samples; zeros when empty. Taken by value so
 * the caller's vector is never mutated — the sort needed for exact
 * percentiles happens on the copy (std::move in when the samples are
 * no longer needed and the copy should be elided).
 */
LatencySummary summarize(std::vector<double> samples);

/** A mixed run's per-tenant "models" JSON array; @p names is aligned
    with rep.per_tenant. */
void appendTenantsJson(obs::JsonWriter &w, const LoadGenReport &rep,
                       const std::vector<std::string> &names);

/** What runLoadGen drives: submit a request, wait for its outcome. */
template <class T>
concept LoadTarget = requires(T &t, const double *x,
                              std::vector<double> *y) {
    { t.inSize() } -> std::convertible_to<size_t>;
    t.wait(t.submit(x, uint64_t{0}), y);
};

/** A target that reports server-side RequestTiming (open-loop able). */
template <class T>
concept TimedTarget =
    LoadTarget<T> && requires(T &t, const double *x,
                              std::vector<double> *y,
                              RequestTiming *timing) {
        {
            t.wait(t.submit(x, uint64_t{0}), y, timing)
        } -> std::same_as<RequestStatus>;
    };

namespace detail {

void fillRequestInput(uint64_t seed, size_t index,
                      std::vector<double> &x);

/** One tenant's outcome counts and samples. */
struct Tally
{
    size_t submitted = 0;
    size_t completed = 0;
    size_t rejected = 0;
    size_t timed_out = 0;
    size_t mismatched = 0;
    std::vector<double> latency_us;
    std::vector<double> queue_wait_us;
    std::vector<double> service_us;

    /** Count one terminal outcome. Done records @p latency_us (and
        @p timing when the target reports it) and memcmp's @p y
        against @p ref when one is given. */
    void record(RequestStatus st, double latency_us,
                const RequestTiming *timing,
                const std::vector<double> &y,
                const std::vector<double> *ref);
    void merge(const Tally &o);
};

/** fatal() unless the run is well-formed. */
void checkLoad(const LoadGenOptions &opts, size_t n_tenants,
               const std::vector<Oracle> *expected, bool timed);

/** Request @p i's reference output, or null without oracles. */
inline const std::vector<double> *
expectedFor(const std::vector<Oracle> *expected, size_t i,
            size_t n_tenants)
{
    return expected != nullptr
               ? &(*expected)[i % n_tenants][i / n_tenants]
               : nullptr;
}

LoadGenReport finishReport(const std::vector<Tally> &tallies,
                           double wall_s, const LoadGenOptions &opts);

template <class P>
auto &
target(const P &p)
{
    if constexpr (std::is_pointer_v<P>)
        return *p;
    else
        return p;
}

/** The target a tenant-list element P (pointer or value) names. */
template <class P>
using TargetOf =
    std::remove_reference_t<decltype(target(std::declval<const P &>()))>;

template <class T, class Ticket>
RequestStatus
waitFor(T &t, Ticket ticket, std::vector<double> *y,
        RequestTiming *timing)
{
    if constexpr (TimedTarget<T>)
        return t.wait(std::move(ticket), y, timing);
    else
        return toRequestStatus(t.wait(std::move(ticket), y));
}

} // namespace detail

/**
 * Drive opts.requests requests across @p tenants (pointers to
 * targets, or target values such as RegistryTenant), closed or open
 * loop per opts.offered_qps. @p expected (optional) holds one
 * referenceOutputs oracle per tenant, aligned with @p tenants.
 */
template <class P>
    requires LoadTarget<detail::TargetOf<P>>
LoadGenReport
runLoadGen(const std::vector<P> &tenants, const LoadGenOptions &opts,
           const std::vector<Oracle> *expected = nullptr)
{
    using Clock = std::chrono::steady_clock;
    using Target = detail::TargetOf<P>;
    constexpr bool timed = TimedTarget<Target>;
    const size_t n = tenants.size();
    detail::checkLoad(opts, n, expected, timed);
    std::vector<size_t> in_sizes(n);
    for (size_t k = 0; k < n; ++k)
        in_sizes[k] = detail::target(tenants[k]).inSize();

    // Request i goes to tenant i % n with its seeded input.
    auto tenant = [&](size_t i) -> Target & {
        return detail::target(tenants[i % n]);
    };
    auto fill = [&](size_t i, std::vector<double> &x) {
        x.resize(in_sizes[i % n]);
        detail::fillRequestInput(opts.seed, i, x);
    };

    std::vector<detail::Tally> tallies(n);
    std::mutex mu;
    const Clock::time_point start = Clock::now();
    if (opts.offered_qps > 0) {
        // checkLoad already refused open loop over untimed targets.
        if constexpr (timed) {
            std::vector<decltype(tenant(0).submit(nullptr, 0))> tickets(
                opts.requests);
            std::condition_variable cv;
            size_t produced = 0;
            std::thread pacer([&] {
                Rng rng(opts.seed ^ 0xa5a5a5a55a5a5a5aull);
                std::vector<double> x;
                Clock::time_point next = Clock::now();
                for (size_t i = 0; i < opts.requests; ++i) {
                    // Poisson arrivals: exponential gaps at the
                    // offered rate, independent of completions.
                    const double gap_s =
                        -std::log(1.0 - rng.uniform()) / opts.offered_qps;
                    next += std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(gap_s));
                    std::this_thread::sleep_until(next);
                    fill(i, x);
                    tickets[i] = tenant(i).submit(x.data(), opts.deadline_us);
                    {
                        std::lock_guard<std::mutex> lk(mu);
                        produced = i + 1;
                    }
                    cv.notify_one();
                }
            });
            std::vector<double> y;
            for (size_t i = 0; i < opts.requests; ++i) {
                {
                    std::unique_lock<std::mutex> lk(mu);
                    cv.wait(lk, [&] { return produced > i; });
                }
                RequestTiming timing;
                const RequestStatus st =
                    tenant(i).wait(std::move(tickets[i]), &y, &timing);
                tallies[i % n].record(
                    st, timing.queue_wait_us + timing.service_us, &timing,
                    y, detail::expectedFor(expected, i, n));
            }
            pacer.join();
        }
    } else {
        std::atomic<size_t> next{0};
        std::vector<std::thread> clients;
        for (size_t c = 0; c < opts.clients; ++c) {
            clients.emplace_back([&] {
                std::vector<detail::Tally> local(n);
                std::vector<double> x, y;
                for (;;) {
                    const size_t i = next.fetch_add(1);
                    if (i >= opts.requests)
                        break;
                    fill(i, x);
                    const Clock::time_point t0 = Clock::now();
                    RequestTiming timing;
                    const RequestStatus st = detail::waitFor(
                        tenant(i),
                        tenant(i).submit(x.data(), opts.deadline_us), &y,
                        &timing);
                    local[i % n].record(
                        st,
                        std::chrono::duration<double, std::micro>(
                            Clock::now() - t0)
                            .count(),
                        timed ? &timing : nullptr, y,
                        detail::expectedFor(expected, i, n));
                }
                std::lock_guard<std::mutex> lk(mu);
                for (size_t k = 0; k < n; ++k)
                    tallies[k].merge(local[k]);
            });
        }
        for (std::thread &t : clients)
            t.join();
    }
    return detail::finishReport(
        tallies,
        std::chrono::duration<double>(Clock::now() - start).count(), opts);
}

} // namespace serve
} // namespace tie

#endif // TIE_SERVE_LOAD_GEN_HH
