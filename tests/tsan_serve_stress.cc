/**
 * @file
 * ThreadSanitizer stress of the serving layer, compiled with
 * -fsanitize=thread even in the default build (see tests/CMakeLists).
 * Hammers the queue and server with the patterns real deployments
 * produce — many concurrent producers, deadline churn (a mix of
 * instantly-expiring and never-expiring requests), admission pressure
 * against a tiny queue, collectors racing completions, shutdown
 * mid-flight with a volley of uncollected tickets, and caller-runs
 * submitters racing the worker threads and stop() — and exits nonzero
 * on any accounting error; TSan aborts on any race.
 *
 * Observability is enabled throughout so the serve.* counter and
 * histogram paths (relaxed counters, mutexed distributions) are
 * race-checked against live readers too. The flight recorder runs —
 * and is restarted mid-storm — so the SPSC rings, the ring-claim
 * epoch, and the drain thread are race-checked against the hot path.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.hh"
#include "obs/flight_recorder.hh"
#include "obs/stat_registry.hh"
#include "serve/load_gen.hh"
#include "serve/server.hh"

namespace {

std::atomic<int> failures{0};

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

tie::TtMatrix
makeLayer(uint64_t seed)
{
    tie::TtLayerConfig cfg;
    cfg.m = {3, 4};
    cfg.n = {4, 3};
    cfg.r = {1, 3, 1};
    tie::Rng rng(seed);
    return tie::TtMatrix::random(cfg, rng);
}

/**
 * Many producers, deadline churn, a queue small enough that admission
 * control fires, collectors verifying every outcome bit-exactly.
 */
void
producerStorm(const std::vector<tie::TtLayerViewD> &model)
{
    using namespace tie::serve;
    ServerOptions opts;
    opts.max_batch = 4;
    opts.batch_timeout_us = 50;
    opts.queue_capacity = 8;
    opts.workers = 2;
    tie::serve::Server server(model, opts);

    const size_t producers = 4;
    const size_t per_producer = 200;
    const std::vector<std::vector<double>> expected =
        referenceOutputs(model, 0, 1, /*seed=*/3, per_producer);

    std::atomic<size_t> done{0}, timed_out{0}, rejected{0},
        mismatched{0};
    std::vector<std::thread> threads;
    for (size_t p = 0; p < producers; ++p)
        threads.emplace_back([&, p] {
            std::vector<double> y;
            for (size_t i = 0; i < per_producer; ++i) {
                // Deadline churn: every third request is born
                // expired, the rest never expire.
                const uint64_t deadline_us =
                    (i + p) % 3 == 0 ? 1 : 0;
                const std::vector<double> x =
                    makeRequestInput(3, i, server.inSize());
                const Ticket t = server.submit(x, deadline_us);
                switch (server.wait(t, &y)) {
                case RequestStatus::Done:
                    ++done;
                    if (y.size() != expected[i].size() ||
                        std::memcmp(y.data(), expected[i].data(),
                                    y.size() * sizeof(double)) != 0)
                        ++mismatched;
                    break;
                case RequestStatus::TimedOut:
                    ++timed_out;
                    break;
                case RequestStatus::Rejected:
                    ++rejected;
                    break;
                default:
                    ++mismatched;
                }
            }
        });
    for (std::thread &t : threads)
        t.join();

    expect(done + timed_out + rejected == producers * per_producer,
           "every request reached a terminal state");
    expect(done > 0, "some requests completed");
    expect(mismatched == 0, "every Done output bit-identical");
}

/** Stop the server while producers are mid-volley. */
void
shutdownMidFlight(const std::vector<tie::TtLayerViewD> &model)
{
    using namespace tie::serve;
    for (int round = 0; round < 5; ++round) {
        ServerOptions opts;
        opts.max_batch = 8;
        opts.batch_timeout_us = 1000;
        opts.queue_capacity = 64;
        opts.workers = 2;
        auto server = std::make_unique<Server>(model, opts);

        std::atomic<bool> go{false};
        std::atomic<size_t> accepted{0}, terminal{0};
        std::vector<std::thread> producers;
        for (int p = 0; p < 3; ++p)
            producers.emplace_back([&] {
                std::vector<double> x(server->inSize(), 0.5);
                std::vector<double> y;
                while (!go.load(std::memory_order_acquire))
                    std::this_thread::yield();
                for (int i = 0; i < 50; ++i) {
                    const Ticket t = server->submit(x.data());
                    if (t.valid())
                        ++accepted;
                    // Collect half; leave the rest for the
                    // destructor-era drain to complete unobserved.
                    if (i % 2 == 0) {
                        const RequestStatus st = server->wait(t, &y);
                        if (tie::serve::isTerminal(st))
                            ++terminal;
                    }
                }
            });
        go.store(true, std::memory_order_release);
        std::this_thread::sleep_for(std::chrono::microseconds(
            200 * (round + 1))); // vary the cut point
        server->stop();
        for (std::thread &t : producers)
            t.join();
        server.reset();
        expect(terminal > 0, "collected requests reached terminal");
    }
}

/**
 * Caller-runs against the worker threads: submitters that find the
 * server idle run their request on their own thread while volleys
 * from the others queue for the workers, and a separate thread stops
 * the server mid-storm. Every accepted request must finish Done with
 * the reference bits, whichever thread ran it.
 */
void
callerRunsRace(const std::vector<tie::TtLayerViewD> &model)
{
    using namespace tie::serve;
    const size_t per_producer = 150;
    const std::vector<std::vector<double>> expected =
        referenceOutputs(model, 0, 1, /*seed=*/5, per_producer);
    for (int round = 0; round < 4; ++round) {
        ServerOptions opts;
        opts.max_batch = 4;
        opts.batch_timeout_us = 100;
        opts.queue_capacity = 32;
        opts.workers = 2;
        Server server(model, opts);

        std::atomic<size_t> accepted{0}, done{0};
        std::vector<std::thread> producers;
        for (size_t p = 0; p < 4; ++p)
            producers.emplace_back([&, p] {
                std::vector<double> y;
                Ticket volley[3];
                for (size_t i = 0; i + 3 <= per_producer; i += 3) {
                    // Odd producers submit volleys of three, marked
                    // more_follows so they queue and coalesce; even
                    // ones one at a time, which may run inline.
                    const size_t k = p % 2 == 1 ? 3 : 1;
                    for (size_t j = 0; j < k; ++j)
                        volley[j] = server.submit(
                            makeRequestInput(5, i + j, server.inSize()),
                            0, /*more_follows=*/j + 1 < k);
                    for (size_t j = 0; j < k; ++j) {
                        if (!volley[j].valid())
                            continue;
                        ++accepted;
                        if (server.wait(volley[j], &y) ==
                                RequestStatus::Done &&
                            std::memcmp(y.data(), expected[i + j].data(),
                                        y.size() * sizeof(double)) == 0)
                            ++done;
                    }
                }
            });
        std::thread stopper([&] {
            std::this_thread::sleep_for(
                std::chrono::microseconds(500 * (round + 1)));
            server.stop();
        });
        stopper.join();
        for (std::thread &t : producers)
            t.join();
        expect(accepted > 0, "caller-runs: some requests accepted");
        expect(done == accepted,
               "caller-runs: every accepted request Done, bit-exact");
        const std::vector<double> x(server.inSize(), 0.5);
        expect(!server.submit(x).valid(),
               "caller-runs: no admission after stop");
    }
}

} // namespace

int
main()
{
    tie::obs::setEnabled(true);
    // Recorder on with a fast drain so the drain thread races the
    // producer rings throughout the storm.
    auto &flight = tie::obs::FlightRecorder::instance();
    {
        tie::obs::FlightRecorder::Options fopts;
        fopts.drain_period_us = 500;
        flight.start(fopts);
    }

    const tie::TtMatrix layer = makeLayer(7);
    const std::vector<tie::TtLayerViewD> model{layerView(layer)};
    producerStorm(model);

    // Restart mid-run: the epoch bump must retire every thread's
    // claimed ring without racing stragglers.
    flight.stop();
    flight.start();
    shutdownMidFlight(model);
    callerRunsRace(model);

    flight.stop(); // final drain
    expect(flight.drained() > 0, "flight events drained");
    expect(!flight.spans().empty(), "flight spans assembled");

    // Readers race live writers: snapshot + serialize at the end.
    auto &reg = tie::obs::StatRegistry::instance();
    expect(reg.counter("serve.accepted").value() > 0,
           "accepted counted");
    expect(reg.counter("serve.batches").value() > 0,
           "batches counted");
    const std::string json = reg.toJson();
    expect(!json.empty() && json.front() == '{',
           "stats serialize to an object");

    if (failures.load() != 0) {
        std::fprintf(stderr, "%d failure(s)\n", failures.load());
        return 1;
    }
    std::printf("tsan_serve_stress: ok\n");
    return 0;
}
