/**
 * @file
 * Serving-layer tests: request-queue lifecycle and misuse fatals,
 * admission control, enqueue deadlines, batching invariance (outputs
 * bit-identical across every coalescing policy), drain-on-shutdown,
 * both load generators against bit-exact references, serve.* stat
 * wiring, and — via the same global operator new/delete hook as
 * test_infer_session.cc — the zero-heap-allocation guarantee of the
 * steady-state serving cycle.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/random.hh"
#include "obs/flight_recorder.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "serve/load_gen.hh"
#include "serve/metrics_endpoint.hh"
#include "serve/request_queue.hh"
#include "server_test_peer.hh"
#include "serve/server.hh"

// ---------------------------------------------------------------------
// Global allocation hook (counting off by default; flipped on only
// around steady-state regions).
// ---------------------------------------------------------------------

static std::atomic<bool> g_count_allocs{false};
static std::atomic<uint64_t> g_alloc_count{0};

static void *
countedAlloc(std::size_t sz)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(sz ? sz : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new(std::size_t sz)
{
    return countedAlloc(sz);
}

void *
operator new[](std::size_t sz)
{
    return countedAlloc(sz);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

// Aligned allocations: session arenas, group blocks and packed cores
// (pack::AlignedBuf) allocate here, not through the plain hook above.
void *
operator new(std::size_t sz, std::align_val_t al)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    void *p = std::aligned_alloc(a, ((sz ? sz : 1) + a - 1) / a * a);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace tie {
namespace serve {

namespace {

/** Two chained layers: 10 -> 12 -> 10. */
struct TestModel
{
    TtMatrix layer1;
    TtMatrix layer2;

    explicit TestModel(uint64_t seed)
        : layer1(makeLayer(config1(), seed)),
          layer2(makeLayer(config2(), seed + 1))
    {}

    static TtLayerConfig
    config1()
    {
        TtLayerConfig c;
        c.m = {3, 4};
        c.n = {2, 5};
        c.r = {1, 3, 1};
        return c;
    }

    static TtLayerConfig
    config2()
    {
        TtLayerConfig c;
        c.m = {2, 5};
        c.n = {3, 4};
        c.r = {1, 2, 1};
        return c;
    }

    static TtMatrix
    makeLayer(const TtLayerConfig &cfg, uint64_t seed)
    {
        Rng rng(seed);
        return TtMatrix::random(cfg, rng);
    }

    std::vector<TtLayerViewD>
    views() const
    {
        return {layerView(layer1), layerView(layer2)};
    }
};

// -------------------------------------------------------------------
// RequestQueue, single-threaded: the full lifecycle without a server.
// -------------------------------------------------------------------

TEST(RequestQueue, SingleThreadedLifecycle)
{
    RequestQueue q(/*n_slots=*/4, /*capacity=*/4, /*in=*/3, /*out=*/2);
    EXPECT_EQ(q.depth(), 0u);

    const double x[3] = {1.0, 2.0, 3.0};
    const Ticket t = q.trySubmit(x);
    ASSERT_TRUE(t.valid());
    EXPECT_EQ(q.depth(), 1u);

    uint32_t ids[4];
    ASSERT_EQ(q.dequeueBatch(4, /*timeout_us=*/0, ids), 1u);
    EXPECT_EQ(q.depth(), 0u);
    EXPECT_EQ(q.input(ids[0]),
              (std::vector<double>{1.0, 2.0, 3.0}));
    q.output(ids[0]) = {7.0, 8.0};
    q.completeBatch(ids, 1, /*service_us=*/42.0);

    RequestTiming timing;
    std::vector<double> y;
    EXPECT_EQ(q.wait(t, &y, &timing), RequestStatus::Done);
    EXPECT_EQ(y, (std::vector<double>{7.0, 8.0}));
    EXPECT_EQ(timing.service_us, 42.0);
    EXPECT_GE(timing.queue_wait_us, 0.0);
}

TEST(RequestQueue, NotificationFdGetsEachTerminalIdOnce)
{
    int fd[2];
    ASSERT_EQ(::pipe2(fd, O_NONBLOCK), 0);
    // Every id the pipe holds right now, in write order.
    auto arrived = [&] {
        std::vector<uint32_t> got(16);
        const ssize_t n =
            ::read(fd[0], got.data(), got.size() * sizeof got[0]);
        got.resize(n > 0 ? static_cast<size_t>(n) / sizeof got[0] : 0);
        return got;
    };
    using Ids = std::vector<uint32_t>;
    RequestQueue q(/*n_slots=*/8, /*capacity=*/8, /*in=*/1, /*out=*/1,
                   /*runners=*/1);
    const double x[1] = {0.5};
    uint32_t ids[4];

    // Done through a batcher: written at completion, not before, and
    // collecting writes nothing more.
    const Ticket done = q.trySubmit(x, 0, nullptr, fd[1]);
    ASSERT_TRUE(done.valid());
    EXPECT_EQ(arrived(), Ids{});
    ASSERT_EQ(q.dequeueBatch(4, 0, ids, /*runner=*/0), 1u);
    EXPECT_EQ(arrived(), Ids{});
    q.completeBatch(ids, 1, 1.0, /*runner=*/0);
    EXPECT_EQ(arrived(), Ids{done.id});
    EXPECT_EQ(q.wait(done), RequestStatus::Done);
    EXPECT_EQ(arrived(), Ids{});

    // Caller-runs: the caller's completion writes it.
    size_t runner = RequestQueue::kNoRunner;
    const Ticket here = q.trySubmit(x, 0, &runner, fd[1]);
    ASSERT_EQ(runner, 0u);
    EXPECT_EQ(arrived(), Ids{});
    q.completeBatch(&here.id, 1, 1.0, runner);
    EXPECT_EQ(arrived(), Ids{here.id});
    EXPECT_EQ(q.wait(here), RequestStatus::Done);

    // TimedOut: written when the batcher drops it; a request without
    // an fd writes nothing when it completes.
    const Ticket stale = q.trySubmit(x, /*deadline_us=*/1, nullptr, fd[1]);
    const Ticket plain = q.trySubmit(x);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(q.dequeueBatch(4, 0, ids, /*runner=*/0), 1u);
    EXPECT_EQ(ids[0], plain.id);
    EXPECT_EQ(arrived(), Ids{stale.id});
    q.completeBatch(ids, 1, 1.0, /*runner=*/0);
    EXPECT_EQ(arrived(), Ids{});
    EXPECT_EQ(q.wait(stale), RequestStatus::TimedOut);
    EXPECT_EQ(q.wait(plain), RequestStatus::Done);

    // A rejected submit never had a slot, so nothing is written.
    q.stop();
    EXPECT_FALSE(q.trySubmit(x, 0, nullptr, fd[1]).valid());
    EXPECT_EQ(arrived(), Ids{});
    ::close(fd[0]);
    ::close(fd[1]);
}

TEST(RequestQueue, AdmissionControlRejectsBeyondCapacity)
{
    RequestQueue q(/*n_slots=*/8, /*capacity=*/2, /*in=*/1, /*out=*/1);
    const double x[1] = {0.5};
    const Ticket a = q.trySubmit(x);
    const Ticket b = q.trySubmit(x);
    const Ticket c = q.trySubmit(x);
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(b.valid());
    EXPECT_FALSE(c.valid());
    // Waiting on a rejected ticket is non-blocking and explicit.
    EXPECT_EQ(q.wait(c), RequestStatus::Rejected);

    // Draining the queue frees capacity again.
    uint32_t ids[2];
    ASSERT_EQ(q.dequeueBatch(2, 0, ids), 2u);
    q.completeBatch(ids, 2, 1.0);
    EXPECT_EQ(q.wait(a), RequestStatus::Done);
    EXPECT_EQ(q.wait(b), RequestStatus::Done);
    EXPECT_TRUE(q.trySubmit(x).valid());
}

TEST(RequestQueue, ExpiredDeadlineBecomesTimedOut)
{
    RequestQueue q(/*n_slots=*/4, /*capacity=*/4, /*in=*/1, /*out=*/1);
    const double x[1] = {0.25};
    const Ticket stale = q.trySubmit(x, /*deadline_us=*/1);
    const Ticket fresh = q.trySubmit(x, /*deadline_us=*/0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

    uint32_t ids[4];
    ASSERT_EQ(q.dequeueBatch(4, 0, ids), 1u); // stale one was dropped
    EXPECT_EQ(q.wait(stale), RequestStatus::TimedOut);
    q.completeBatch(ids, 1, 1.0);
    EXPECT_EQ(q.wait(fresh), RequestStatus::Done);
}

TEST(RequestQueue, StopDrainsThenReportsEmpty)
{
    RequestQueue q(/*n_slots=*/4, /*capacity=*/4, /*in=*/1, /*out=*/1);
    const double x[1] = {1.5};
    const Ticket t = q.trySubmit(x);
    q.stop();
    EXPECT_FALSE(q.trySubmit(x).valid()); // no admission after stop

    // The backlog is still handed out (drain-on-shutdown) ...
    uint32_t ids[4];
    ASSERT_EQ(q.dequeueBatch(4, /*timeout_us=*/5000, ids), 1u);
    q.completeBatch(ids, 1, 1.0);
    EXPECT_EQ(q.wait(t), RequestStatus::Done);
    // ... and only then do batchers see "stopped and drained".
    EXPECT_EQ(q.dequeueBatch(4, 0, ids), 0u);
}

TEST(RequestQueue, CallerRunsLendsOnlyWhenIdle)
{
    RequestQueue q(/*n_slots=*/8, /*capacity=*/8, /*in=*/1, /*out=*/1,
                   /*runners=*/2);
    const double x[1] = {2.5};
    uint32_t ids[4];
    size_t runner = 0;

    // Idle queue: the caller gets runner 0 and the request is Running
    // at once, with no queue wait.
    const Ticket a = q.trySubmit(x, 0, &runner);
    ASSERT_EQ(runner, 0u);
    // One runner is lent, so the queue is not idle: this one queues.
    const Ticket b = q.trySubmit(x, 0, &runner);
    EXPECT_EQ(runner, RequestQueue::kNoRunner);
    EXPECT_EQ(q.depth(), 1u);
    q.completeBatch(&a.id, 1, 1.0, /*runner=*/0);
    RequestTiming timing;
    EXPECT_EQ(q.wait(a, nullptr, &timing), RequestStatus::Done);
    EXPECT_EQ(timing.queue_wait_us, 0.0);

    // Something is queued: a submit queues behind it, runner or not.
    const Ticket c = q.trySubmit(x, 0, &runner);
    EXPECT_EQ(runner, RequestQueue::kNoRunner);
    ASSERT_EQ(q.dequeueBatch(4, 0, ids, /*runner=*/0), 2u);
    // The queue is empty again, but runner 0 holds a batch it has
    // not completed: it is busy, never lent, and though runner 1 is
    // idle this one queues.
    const Ticket d = q.trySubmit(x, 0, &runner);
    ASSERT_EQ(runner, RequestQueue::kNoRunner);
    q.completeBatch(ids, 2, 1.0, /*runner=*/0);
    ASSERT_EQ(q.dequeueBatch(4, 0, ids, /*runner=*/1), 1u);
    q.completeBatch(ids, 1, 1.0, /*runner=*/1);
    for (const Ticket t : {b, c, d})
        EXPECT_EQ(q.wait(t), RequestStatus::Done);

    // Lent again; a batcher waiting meanwhile takes nothing until the
    // caller's completion returns the runner.
    const Ticket e = q.trySubmit(x, 0, &runner);
    ASSERT_EQ(runner, 0u);
    std::atomic<size_t> dequeued{0};
    std::thread batcher([&] {
        uint32_t bids[4];
        for (size_t n; (n = q.dequeueBatch(4, 0, bids, 0)) > 0;) {
            dequeued += n;
            q.completeBatch(bids, n, 1.0, 0);
        }
    });
    const Ticket f = q.trySubmit(x, 0, &runner);
    EXPECT_EQ(runner, RequestQueue::kNoRunner);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(q.depth(), 1u);
    EXPECT_EQ(dequeued.load(), 0u);
    q.completeBatch(&e.id, 1, 1.0, /*runner=*/0);
    EXPECT_EQ(q.wait(e), RequestStatus::Done);
    EXPECT_EQ(q.wait(f), RequestStatus::Done);
    EXPECT_EQ(dequeued.load(), 1u);
    q.stop();
    batcher.join();
}

TEST(RequestQueueFatal, CollectingATicketTwiceDies)
{
    EXPECT_EXIT(
        {
            RequestQueue q(2, 2, 1, 1);
            const double x[1] = {1.0};
            const Ticket t = q.trySubmit(x);
            uint32_t ids[1];
            q.dequeueBatch(1, 0, ids);
            q.completeBatch(ids, 1, 1.0);
            q.wait(t);
            q.wait(t); // fatal: slot was recycled
        },
        ::testing::ExitedWithCode(1), "already collected");
}

// -------------------------------------------------------------------
// Server: batching invariance, shedding, shutdown, zero allocation.
// -------------------------------------------------------------------

TEST(Server, BatchingInvarianceAcrossPoliciesAndWorkers)
{
    const TestModel model(11);
    const uint64_t seed = 77;
    const size_t requests = 40;
    const std::vector<std::vector<double>> expected =
        referenceOutputs(model.views(), 0, 1, seed, requests);

    obs::StatRegistry &reg = obs::StatRegistry::instance();
    obs::setEnabled(true);
    for (size_t max_batch : {size_t(1), size_t(8), size_t(64)}) {
        for (uint64_t timeout_us : {uint64_t(0), uint64_t(1000)}) {
            for (size_t workers : {size_t(1), size_t(4)}) {
                ServerOptions opts;
                opts.max_batch = max_batch;
                opts.batch_timeout_us = timeout_us;
                opts.workers = workers;
                opts.queue_capacity = 64;
                Server server(model.views(), opts);
                reg.resetAll();

                // Submit everything while the server is busy, so every
                // request queues and the batcher actually coalesces;
                // then collect and compare bit-exactly.
                std::vector<Ticket> tickets(requests);
                {
                    const auto busy = ServerTestPeer::holdChains(server);
                    for (size_t i = 0; i < requests; ++i)
                        tickets[i] = server.submit(
                            makeRequestInput(seed, i, server.inSize()));
                }
                std::vector<double> y;
                for (size_t i = 0; i < requests; ++i) {
                    ASSERT_TRUE(tickets[i].valid());
                    ASSERT_EQ(server.wait(tickets[i], &y),
                              RequestStatus::Done);
                    ASSERT_EQ(y.size(), expected[i].size());
                    EXPECT_EQ(0, std::memcmp(y.data(),
                                             expected[i].data(),
                                             y.size() * sizeof(double)))
                        << "request " << i << " max_batch " << max_batch
                        << " timeout_us " << timeout_us << " workers "
                        << workers;
                }
                // No worker dequeued while the chains were lent, so
                // the first batch took min(requests, max_batch).
                if (max_batch > 1) {
                    EXPECT_GT(reg.distribution("serve.batch_size")
                                  .snapshot()
                                  .max,
                              1.0)
                        << "max_batch " << max_batch << " timeout_us "
                        << timeout_us << " workers " << workers;
                }
            }
        }
    }
    obs::setEnabled(false);
    reg.resetAll();
}

TEST(Server, OneThreadBurstWithMoreFollowsCoalesces)
{
    const TestModel model(73);
    const uint64_t seed = 79;
    const size_t burst = 8;
    const std::vector<std::vector<double>> expected =
        referenceOutputs(model.views(), 0, 1, seed, burst);

    obs::StatRegistry &reg = obs::StatRegistry::instance();
    obs::setEnabled(true);
    for (size_t workers : {size_t(1), size_t(2)}) {
        ServerOptions opts;
        opts.max_batch = burst;
        opts.batch_timeout_us = 1000000; // only a full batch ends it
        opts.queue_capacity = 64;
        opts.workers = workers;
        Server server(model.views(), opts);
        reg.resetAll();

        // An idle server, one submitting thread: the burst queues
        // (the last request too, behind the others) and the worker
        // runs it as one full batch.
        std::vector<Ticket> tickets(burst);
        for (size_t i = 0; i < burst; ++i)
            tickets[i] =
                server.submit(makeRequestInput(seed, i, server.inSize()),
                              0, /*more_follows=*/i + 1 < burst);
        std::vector<double> y;
        RequestTiming timing;
        for (size_t i = 0; i < burst; ++i) {
            ASSERT_EQ(server.wait(tickets[i], &y, &timing),
                      RequestStatus::Done);
            EXPECT_GT(timing.queue_wait_us, 0.0) << "request " << i;
            EXPECT_EQ(0, std::memcmp(y.data(), expected[i].data(),
                                     y.size() * sizeof(double)))
                << "request " << i << " workers " << workers;
        }
        EXPECT_EQ(reg.counter("serve.batches").value(), 1u)
            << "workers " << workers;
        EXPECT_EQ(reg.distribution("serve.batch_size").snapshot().max,
                  double(burst))
            << "workers " << workers;
    }
    obs::setEnabled(false);
    reg.resetAll();
}

TEST(Server, AdmissionControlShedsExplicitly)
{
    const TestModel model(13);
    ServerOptions opts;
    opts.max_batch = 16;
    opts.batch_timeout_us = 200000; // hold the batch open 200 ms
    opts.queue_capacity = 2;
    opts.workers = 1;
    Server server(model.views(), opts);

    // The server is busy, so the first request queues; the worker then
    // waits for its batch window, so the queue holds at most
    // queue_capacity pending requests and the rest are rejected.
    const std::vector<double> x =
        makeRequestInput(1, 0, server.inSize());
    std::vector<Ticket> tickets;
    size_t rejected = 0;
    {
        const auto busy = ServerTestPeer::holdChains(server);
        for (size_t i = 0; i < 6; ++i) {
            const Ticket t = server.submit(x);
            if (t.valid())
                tickets.push_back(t);
            else
                ++rejected;
        }
    }
    EXPECT_EQ(tickets.size(), 2u);
    EXPECT_EQ(rejected, 4u);
    for (const Ticket t : tickets)
        EXPECT_EQ(server.wait(t), RequestStatus::Done);
}

TEST(Server, EnqueueDeadlineTimesOutStaleRequests)
{
    const TestModel model(17);
    ServerOptions opts;
    opts.max_batch = 64;
    opts.batch_timeout_us = 100000; // 100 ms batch window
    opts.queue_capacity = 8;
    opts.workers = 1;
    Server server(model.views(), opts);

    const std::vector<double> x =
        makeRequestInput(2, 0, server.inSize());
    // The server is busy, so both queue and sit there for the 100 ms
    // window; by then the 1 us deadline has long expired while the
    // undeadlined one runs.
    Ticket stale, fresh;
    {
        const auto busy = ServerTestPeer::holdChains(server);
        stale = server.submit(x, /*deadline_us=*/1);
        fresh = server.submit(x);
    }
    ASSERT_TRUE(stale.valid());
    ASSERT_TRUE(fresh.valid());

    RequestTiming timing;
    EXPECT_EQ(server.wait(stale, nullptr, &timing),
              RequestStatus::TimedOut);
    EXPECT_GT(timing.queue_wait_us, 1.0);
    std::vector<double> y;
    EXPECT_EQ(server.wait(fresh, &y), RequestStatus::Done);
    EXPECT_EQ(y.size(), server.outSize());
}

TEST(Server, CallerRunsInlineQueuedAndBatchOneBitsMatch)
{
    const TestModel model(59);
    const uint64_t seed = 61;
    const size_t requests = 24;
    const std::vector<std::vector<double>> expected =
        referenceOutputs(model.views(), 0, 1, seed, requests);

    for (size_t workers : {size_t(1), size_t(4)}) {
        ServerOptions opts;
        opts.max_batch = 8;
        opts.batch_timeout_us = 200;
        opts.queue_capacity = 64;
        opts.workers = workers;
        Server server(model.views(), opts);
        std::vector<double> y;
        RequestTiming timing;

        // Idle server: each request runs on this thread, is Done when
        // submit returns and never waited in the queue.
        for (size_t i = 0; i < requests; ++i) {
            const Ticket t =
                server.submit(makeRequestInput(seed, i, server.inSize()));
            EXPECT_EQ(server.queueDepth(), 0u);
            ASSERT_EQ(server.wait(t, &y, &timing), RequestStatus::Done);
            EXPECT_EQ(timing.queue_wait_us, 0.0) << "request " << i;
            ASSERT_EQ(y.size(), expected[i].size());
            EXPECT_EQ(0, std::memcmp(y.data(), expected[i].data(),
                                     y.size() * sizeof(double)))
                << "inline request " << i << " workers " << workers;
        }

        // Busy server: the same requests queue and run on the worker
        // threads, in batches.
        std::vector<Ticket> tickets(requests);
        {
            const auto busy = ServerTestPeer::holdChains(server);
            for (size_t i = 0; i < requests; ++i)
                tickets[i] = server.submit(
                    makeRequestInput(seed, i, server.inSize()));
        }
        for (size_t i = 0; i < requests; ++i) {
            ASSERT_EQ(server.wait(tickets[i], &y, &timing),
                      RequestStatus::Done);
            EXPECT_GT(timing.queue_wait_us, 0.0) << "request " << i;
            EXPECT_EQ(0, std::memcmp(y.data(), expected[i].data(),
                                     y.size() * sizeof(double)))
                << "queued request " << i << " workers " << workers;
        }
    }
}

TEST(Server, StopRacingCallerRunsLosesNothing)
{
    const TestModel model(67);
    const uint64_t seed = 71;
    const size_t per_thread = 400;
    const std::vector<std::vector<double>> expected =
        referenceOutputs(model.views(), 0, 1, seed, per_thread);

    obs::StatRegistry &reg = obs::StatRegistry::instance();
    obs::setEnabled(true);
    for (int round = 0; round < 8; ++round) {
        reg.resetAll();
        ServerOptions opts;
        opts.max_batch = 4;
        opts.batch_timeout_us = 100;
        opts.queue_capacity = 16;
        opts.workers = 1 + round % 2;
        Server server(model.views(), opts);

        // Three submitters race each other (inline or queued) and then
        // stop(); every accepted request must still finish Done with
        // the reference bits.
        std::atomic<size_t> accepted{0}, done{0}, mismatched{0};
        std::vector<std::thread> threads;
        for (int p = 0; p < 3; ++p)
            threads.emplace_back([&] {
                std::vector<double> y;
                for (size_t i = 0; i < per_thread; ++i) {
                    const Ticket t = server.submit(
                        makeRequestInput(seed, i, server.inSize()));
                    if (!t.valid())
                        break; // stopped
                    ++accepted;
                    if (server.wait(t, &y) == RequestStatus::Done &&
                        std::memcmp(y.data(), expected[i].data(),
                                    y.size() * sizeof(double)) == 0)
                        ++done;
                    else
                        ++mismatched;
                }
            });
        std::this_thread::sleep_for(
            std::chrono::microseconds(300 * (round + 1)));
        server.stop();
        // Every run admitted before stop() has finished when it returns.
        EXPECT_EQ(reg.counter("serve.completed").value(),
                  reg.counter("serve.accepted").value())
            << "round " << round;
        const Ticket late =
            server.submit(makeRequestInput(seed, 0, server.inSize()));
        EXPECT_FALSE(late.valid());
        EXPECT_EQ(server.wait(late), RequestStatus::Rejected);
        for (std::thread &t : threads)
            t.join();
        EXPECT_EQ(done.load(), accepted.load()) << "round " << round;
        EXPECT_EQ(mismatched.load(), 0u) << "round " << round;
        EXPECT_EQ(reg.counter("serve.accepted").value(), accepted.load());
    }
    obs::setEnabled(false);
    reg.resetAll();
}

TEST(Server, StopDrainsQueuedRequests)
{
    const TestModel model(19);
    const uint64_t seed = 5;
    const size_t requests = 12;
    const std::vector<std::vector<double>> expected =
        referenceOutputs(model.views(), 0, 1, seed, requests);

    ServerOptions opts;
    opts.max_batch = 4;
    opts.batch_timeout_us = 500000; // would idle half a second...
    opts.queue_capacity = 16;
    opts.workers = 2;
    Server server(model.views(), opts);

    std::vector<Ticket> tickets(requests);
    for (size_t i = 0; i < requests; ++i)
        tickets[i] = server.submit(
            makeRequestInput(seed, i, server.inSize()));
    server.stop(); // ...but shutdown drains immediately

    EXPECT_FALSE(
        server.submit(makeRequestInput(seed, 0, server.inSize()))
            .valid());
    std::vector<double> y;
    for (size_t i = 0; i < requests; ++i) {
        ASSERT_EQ(server.wait(tickets[i], &y), RequestStatus::Done);
        EXPECT_EQ(0, std::memcmp(y.data(), expected[i].data(),
                                 y.size() * sizeof(double)))
            << "request " << i;
    }
}

TEST(ServerFatal, MismatchedLayerChainDies)
{
    EXPECT_EXIT(
        {
            const TestModel model(23);
            // layer1 twice: its 12-wide output cannot feed its own
            // 10-wide input.
            Server bad({layerView(model.layer1),
                        layerView(model.layer1)});
        },
        ::testing::ExitedWithCode(1), "consumes");
}

TEST(Server, SteadyStateServingDoesNotHeapAllocate)
{
    const TestModel model(29);
    ServerOptions opts;
    opts.max_batch = 8;
    opts.batch_timeout_us = 0; // latency-greedy keeps the test fast
    opts.queue_capacity = 64;
    opts.workers = 1;
    Server server(model.views(), opts);

    Rng rng(31);
    std::vector<double> x(server.inSize());
    std::vector<double> y;
    std::vector<Ticket> tickets(16);
    RequestTiming timing;

    auto burst = [&] {
        for (size_t i = 0; i < tickets.size(); ++i) {
            for (double &v : x)
                v = rng.uniform(-1.0, 1.0);
            tickets[i] = server.submit(x.data());
        }
        for (const Ticket t : tickets) {
            ASSERT_TRUE(t.valid());
            ASSERT_EQ(server.wait(t, &y, &timing),
                      RequestStatus::Done);
        }
    };

    // Warm-up: collector output shaping and any lazy init. The
    // server's own sessions were already warmed at max_batch in the
    // constructor.
    for (int round = 0; round < 3; ++round)
        burst();

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int round = 0; round < 4; ++round)
        burst();
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "steady-state submit/serve/collect cycle must not touch "
           "the heap (either side)";
}

TEST(Server, ConstructionCostDoesNotGrowWithQueueCapacity)
{
    // Slots take their payload buffers at first use, so building a
    // server allocates the same whatever its capacity: the slot table
    // is one allocation of metadata.
    const TestModel model(83);
    ServerOptions opts;
    opts.max_batch = 8;
    opts.workers = 1;
    auto constructionAllocs = [&](size_t capacity) {
        opts.queue_capacity = capacity;
        g_alloc_count.store(0);
        g_count_allocs.store(true);
        auto server = std::make_unique<Server>(model.views(), opts);
        g_count_allocs.store(false);
        return g_alloc_count.load();
    };
    constructionAllocs(16); // first-use statics of the serving layer
    const uint64_t small = constructionAllocs(16);
    const uint64_t large = constructionAllocs(4096);
    EXPECT_EQ(small, large)
        << "queue_capacity 16 vs 4096: a server must not allocate "
           "payload buffers for slots no request has used";
}

TEST(Server, SequentialRequestsAllocateNothingAfterTheFirst)
{
    const TestModel model(89);
    ServerOptions opts;
    opts.max_batch = 8;
    opts.batch_timeout_us = 0;
    opts.workers = 1;
    const std::vector<double> x(model.views().front().cfg.inSize(), 0.5);
    std::vector<double> y;
    auto serveOne = [&](Server &server) {
        return server.wait(server.submit(x.data()), &y);
    };
    {
        // The process-wide first-use statics (the serving and session
        // stats) are not this test's subject: settle them elsewhere.
        Server warm(model.views(), opts);
        for (int i = 0; i < 2; ++i)
            ASSERT_EQ(serveOne(warm), RequestStatus::Done);
    }

    Server server(model.views(), opts);
    ASSERT_EQ(serveOne(server), RequestStatus::Done); // sizes a slot

    constexpr size_t kRequests = 64;
    size_t done = 0;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (size_t i = 0; i < kRequests; ++i)
        done += serveOne(server) == RequestStatus::Done;
    g_count_allocs.store(false);
    EXPECT_EQ(done, kRequests);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "one request at a time reuses the slot the first one sized";
}

TEST(Server, ABurstGrowsTheSlotTableOnceThenAllocatesNothing)
{
    // Stats on, for the serve.slots_allocated gauge; host spans off,
    // since recording one allocates.
    obs::StatRegistry &reg = obs::StatRegistry::instance();
    obs::setEnabled(true);
    obs::Trace::instance().setCategories(true, false);
    {
        const TestModel model(101);
        ServerOptions opts;
        opts.max_batch = 4;
        opts.batch_timeout_us = 0;
        opts.workers = 2;
        opts.queue_capacity = 256;
        Server server(model.views(), opts);

        const std::vector<double> x(server.inSize(), 0.25);
        std::vector<double> y(server.outSize());
        // One request first: the serving layer's first-use statics.
        ASSERT_EQ(server.wait(server.submit(x.data()), &y),
                  RequestStatus::Done);
        reg.resetAll();
        const obs::Gauge &sized = reg.gauge("serve.slots_allocated");

        // With every chain held, all k requests are in flight at once.
        constexpr size_t k = 12;
        std::vector<Ticket> tickets(k);
        size_t done = 0;
        auto burst = [&] {
            uint64_t allocs = 0;
            {
                const auto busy = ServerTestPeer::holdChains(server);
                g_alloc_count.store(0);
                g_count_allocs.store(true);
                for (Ticket &t : tickets)
                    t = server.submit(x.data());
                g_count_allocs.store(false);
                allocs = g_alloc_count.load();
            }
            g_alloc_count.store(0);
            g_count_allocs.store(true);
            for (const Ticket t : tickets)
                done += server.wait(t, &y) == RequestStatus::Done;
            g_count_allocs.store(false);
            return allocs + g_alloc_count.load();
        };

        EXPECT_LE(burst(), 2 * k) << "an input and an output per slot";
        EXPECT_EQ(sized.value(), static_cast<int64_t>(k));
        for (int round = 0; round < 3; ++round) {
            EXPECT_EQ(burst(), 0u) << "round " << round;
            EXPECT_EQ(sized.value(), static_cast<int64_t>(k));
        }
        EXPECT_EQ(done, 4 * k);
    }
    obs::Trace::instance().setCategories(true, true);
    obs::setEnabled(false);
    reg.resetAll();
}

// -------------------------------------------------------------------
// Load generators.
// -------------------------------------------------------------------

TEST(LoadGen, ClosedLoopCompletesAndVerifiesBitExactly)
{
    const TestModel model(37);
    ServerOptions sopts;
    sopts.max_batch = 8;
    sopts.batch_timeout_us = 200;
    sopts.queue_capacity = 64;
    sopts.workers = 2;
    Server server(model.views(), sopts);

    LoadGenOptions lopts;
    lopts.requests = 96;
    lopts.clients = 4;
    lopts.seed = 9;
    const std::vector<Oracle> expected{referenceOutputs(
        model.views(), 0, 1, lopts.seed, lopts.requests)};

    const LoadGenReport rep =
        runLoadGen(std::vector<Server *>{&server}, lopts, &expected);
    EXPECT_FALSE(rep.open_loop);
    EXPECT_EQ(rep.submitted, lopts.requests);
    // Closed-loop clients never outrun the queue: nothing is shed.
    EXPECT_EQ(rep.completed, lopts.requests);
    EXPECT_EQ(rep.rejected, 0u);
    EXPECT_EQ(rep.timed_out, 0u);
    EXPECT_EQ(rep.mismatched, 0u);
    EXPECT_GT(rep.achieved_qps, 0.0);
    EXPECT_LE(rep.latency.p50, rep.latency.p95);
    EXPECT_LE(rep.latency.p95, rep.latency.p99);
    EXPECT_LE(rep.latency.p99, rep.latency.max);
    EXPECT_GT(rep.service.max, 0.0);
}

TEST(LoadGen, OpenLoopAccountsForEveryRequest)
{
    const TestModel model(41);
    ServerOptions sopts;
    sopts.max_batch = 16;
    sopts.batch_timeout_us = 500;
    sopts.queue_capacity = 32;
    sopts.workers = 1;
    Server server(model.views(), sopts);

    LoadGenOptions lopts;
    lopts.requests = 64;
    lopts.offered_qps = 20000; // well into the batching regime
    lopts.seed = 15;
    const std::vector<Oracle> expected{referenceOutputs(
        model.views(), 0, 1, lopts.seed, lopts.requests)};

    const LoadGenReport rep =
        runLoadGen(std::vector<Server *>{&server}, lopts, &expected);
    EXPECT_TRUE(rep.open_loop);
    EXPECT_EQ(rep.submitted, lopts.requests);
    EXPECT_EQ(rep.completed + rep.rejected + rep.timed_out,
              lopts.requests);
    EXPECT_EQ(rep.mismatched, 0u);
    EXPECT_GT(rep.completed, 0u);
    EXPECT_LE(rep.latency.p50, rep.latency.p99);
}

// -------------------------------------------------------------------
// serve.* observability wiring.
// -------------------------------------------------------------------

TEST(ServeObs, StatsAccumulateWhenEnabled)
{
    obs::StatRegistry &reg = obs::StatRegistry::instance();
    obs::setEnabled(true);
    reg.resetAll();
    {
        const TestModel model(43);
        ServerOptions opts;
        opts.max_batch = 8;
        opts.batch_timeout_us = 0;
        opts.queue_capacity = 4;
        opts.workers = 1;
        Server server(model.views(), opts);

        const std::vector<double> x =
            makeRequestInput(3, 0, server.inSize());
        std::vector<Ticket> ok;
        size_t rejected = 0;
        for (size_t i = 0; i < 24; ++i) {
            const Ticket t = server.submit(x);
            if (t.valid())
                ok.push_back(t);
            else
                ++rejected;
        }
        for (const Ticket t : ok)
            EXPECT_EQ(server.wait(t), RequestStatus::Done);

        EXPECT_EQ(reg.counter("serve.accepted").value(), ok.size());
        EXPECT_EQ(reg.counter("serve.rejected").value(), rejected);
        EXPECT_EQ(reg.counter("serve.completed").value(), ok.size());
        EXPECT_EQ(reg.counter("serve.timed_out").value(), 0u);
        EXPECT_GE(reg.counter("serve.batches").value(), 1u);

        const auto waits =
            reg.distribution("serve.queue_wait_us").snapshot();
        EXPECT_EQ(waits.count, ok.size());
        const auto sizes =
            reg.distribution("serve.batch_size").snapshot();
        EXPECT_EQ(sizes.count,
                  reg.counter("serve.batches").value());
        EXPECT_GE(sizes.max, 1.0);
        EXPECT_GT(
            reg.distribution("serve.service_us").snapshot().count, 0u);
        EXPECT_LE(reg.distribution("serve.service_us").percentile(50),
                  reg.distribution("serve.service_us").percentile(99));
    }
    obs::setEnabled(false);
    reg.resetAll();
}

// -------------------------------------------------------------------
// Flight recorder on the serving hot path.
// -------------------------------------------------------------------

/** Serve tests with the flight recorder: clean slate both sides. */
class ServeFlightTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::setEnabled(false);
        obs::FlightRecorder::instance().stop();
        obs::FlightRecorder::instance().reset();
        obs::StatRegistry::instance().resetAll();
    }

    void
    TearDown() override
    {
        obs::FlightRecorder::instance().stop();
        obs::FlightRecorder::instance().reset();
        obs::setEnabled(false);
        obs::StatRegistry::instance().resetAll();
    }
};

TEST_F(ServeFlightTest, InstrumentedSteadyStateDoesNotHeapAllocate)
{
    // Same contract as SteadyStateServingDoesNotHeapAllocate, but with
    // the recorder ON: record() must stay allocation-free. The drain
    // period is pushed out past the test so the (allocating) drain
    // thread cannot run inside the counted window.
    obs::FlightRecorder::Options fopts;
    fopts.drain_period_us = 60'000'000;
    obs::FlightRecorder::instance().start(fopts);

    const TestModel model(29);
    ServerOptions opts;
    opts.max_batch = 8;
    opts.batch_timeout_us = 0;
    opts.queue_capacity = 64;
    opts.workers = 1;
    Server server(model.views(), opts);

    Rng rng(31);
    std::vector<double> x(server.inSize());
    std::vector<double> y;
    std::vector<Ticket> tickets(16);

    auto burst = [&] {
        for (size_t i = 0; i < tickets.size(); ++i) {
            for (double &v : x)
                v = rng.uniform(-1.0, 1.0);
            tickets[i] = server.submit(x.data());
        }
        for (const Ticket t : tickets) {
            ASSERT_TRUE(t.valid());
            ASSERT_EQ(server.wait(t, &y), RequestStatus::Done);
        }
    };

    for (int round = 0; round < 3; ++round)
        burst(); // warm-up: ring claiming, output shaping

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int round = 0; round < 4; ++round)
        burst();
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "recording flight events must not touch the heap";

    obs::FlightRecorder::instance().stop();
    EXPECT_GT(obs::FlightRecorder::instance().drained(), 0u);
}

TEST_F(ServeFlightTest, RecorderOnOutputsStayBitIdentical)
{
    // The reference is computed with the recorder off; every served
    // output must match it bit-for-bit with the recorder on.
    obs::FlightRecorder::instance().start();

    const TestModel model(47);
    const uint64_t seed = 21;
    const size_t requests = 32;
    const std::vector<std::vector<double>> expected =
        referenceOutputs(model.views(), 0, 1, seed, requests);

    ServerOptions opts;
    opts.max_batch = 8;
    opts.batch_timeout_us = 200;
    opts.queue_capacity = 64;
    opts.workers = 2;
    Server server(model.views(), opts);

    std::vector<Ticket> tickets(requests);
    for (size_t i = 0; i < requests; ++i)
        tickets[i] =
            server.submit(makeRequestInput(seed, i, server.inSize()));
    std::vector<double> y;
    for (size_t i = 0; i < requests; ++i) {
        ASSERT_TRUE(tickets[i].valid());
        ASSERT_EQ(server.wait(tickets[i], &y), RequestStatus::Done);
        ASSERT_EQ(y.size(), expected[i].size());
        EXPECT_EQ(0, std::memcmp(y.data(), expected[i].data(),
                                 y.size() * sizeof(double)))
            << "request " << i;
    }
}

TEST_F(ServeFlightTest, CallerRunsBitsAndPhasesWithObsOnAndOff)
{
    const TestModel model(73);
    const uint64_t seed = 79;
    const size_t requests = 16;
    const std::vector<std::vector<double>> expected =
        referenceOutputs(model.views(), 0, 1, seed, requests);

    for (const bool on : {false, true}) {
        obs::setEnabled(on);
        if (on)
            obs::FlightRecorder::instance().start();
        ServerOptions opts;
        opts.max_batch = 8;
        opts.batch_timeout_us = 200;
        opts.workers = 2;
        Server server(model.views(), opts);

        std::vector<double> y;
        RequestTiming timing;
        for (size_t i = 0; i < requests; ++i) {
            const Ticket t =
                server.submit(makeRequestInput(seed, i, server.inSize()));
            ASSERT_EQ(server.wait(t, &y, &timing), RequestStatus::Done);
            EXPECT_EQ(timing.queue_wait_us, 0.0); // ran inline
            EXPECT_EQ(0, std::memcmp(y.data(), expected[i].data(),
                                     y.size() * sizeof(double)))
                << "request " << i << " obs " << on;
        }
        server.stop();
        if (!on)
            continue;
        obs::FlightRecorder::instance().stop(); // final drain

        // Each inline batch of one recorded its Queue, Infer and
        // Complete phases: one span per request (spans are assembled
        // at Complete) and one Infer sample each.
        const std::vector<obs::FlightSpan> spans =
            obs::FlightRecorder::instance().spans();
        ASSERT_EQ(spans.size(), requests);
        std::set<uint32_t> batches;
        for (const obs::FlightSpan &s : spans) {
            EXPECT_NE(s.trace_id, 0u);
            batches.insert(s.batch_id);
        }
        EXPECT_EQ(batches.size(), requests);
        auto &reg = obs::StatRegistry::instance();
        EXPECT_EQ(reg.distribution("serve.phase.infer_us")
                      .snapshot().count, requests);
        EXPECT_EQ(reg.distribution("serve.phase.queue_us")
                      .snapshot().count, requests);
        EXPECT_EQ(reg.counter("serve.batches").value(), requests);
        EXPECT_EQ(reg.counter("serve.completed").value(), requests);
        const auto waits =
            reg.distribution("serve.queue_wait_us").snapshot();
        EXPECT_EQ(waits.count, requests);
        EXPECT_EQ(waits.max, 0.0);
        EXPECT_EQ(reg.distribution("serve.batch_size").snapshot().max,
                  1.0);
        EXPECT_EQ(obs::FlightRecorder::instance().dropped(), 0u);
    }
}

TEST_F(ServeFlightTest, SpansCarryPerRequestAttribution)
{
    obs::setEnabled(true); // phase distributions record at drain time
    obs::FlightRecorder::instance().start();

    const TestModel model(53);
    ServerOptions opts;
    opts.max_batch = 8;
    opts.batch_timeout_us = 200;
    opts.queue_capacity = 64;
    opts.workers = 1;
    Server server(model.views(), opts);
    server.setFlightTag(/*model_id=*/3, /*model_version=*/7);

    const size_t requests = 24;
    std::vector<Ticket> tickets(requests);
    for (size_t i = 0; i < requests; ++i)
        tickets[i] =
            server.submit(makeRequestInput(1, i, server.inSize()));
    for (const Ticket t : tickets)
        ASSERT_EQ(server.wait(t), RequestStatus::Done);
    server.stop();
    obs::FlightRecorder::instance().stop(); // final drain

    const std::vector<obs::FlightSpan> spans =
        obs::FlightRecorder::instance().spans();
    ASSERT_EQ(spans.size(), requests);
    std::set<uint64_t> trace_ids;
    for (const obs::FlightSpan &s : spans) {
        EXPECT_NE(s.trace_id, 0u);
        trace_ids.insert(s.trace_id);
        EXPECT_NE(s.batch_id, 0u);
        EXPECT_EQ(s.model_id, 3u);
        EXPECT_EQ(s.model_version, 7u);
        EXPECT_GE(s.queue_us, 0.0);
        EXPECT_GE(s.infer_us, 0.0);
    }
    EXPECT_EQ(trace_ids.size(), requests) << "trace ids must be unique";

    auto &reg = obs::StatRegistry::instance();
    EXPECT_EQ(reg.distribution("serve.phase.queue_us")
                  .snapshot().count, requests);
    EXPECT_EQ(reg.distribution("serve.phase.infer_us")
                  .snapshot().count, requests);
    EXPECT_GE(reg.distribution("serve.phase.batch_us")
                  .snapshot().count, 1u);
    EXPECT_EQ(obs::FlightRecorder::instance().dropped(), 0u);
}

// -------------------------------------------------------------------
// Metrics endpoint.
// -------------------------------------------------------------------

namespace {

/** Minimal blocking HTTP/1.0 GET against 127.0.0.1:port. */
std::string
httpGet(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
    (void)::send(fd, req, sizeof(req) - 1, 0);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        out.append(buf, static_cast<size_t>(n));
    ::close(fd);
    return out;
}

} // namespace

TEST_F(ServeFlightTest, MetricsEndpointServesPrometheusText)
{
    obs::setEnabled(true);
    auto &reg = obs::StatRegistry::instance();
    reg.counter("endpoint.test_counter", "endpoint test").add(11);
    reg.distribution("endpoint.test_lat_us", "endpoint latency")
        .record(5.0);

    MetricsEndpoint endpoint;
    MetricsEndpointOptions mopts;
    mopts.port = 0; // ephemeral
    ASSERT_TRUE(endpoint.start(mopts));
    ASSERT_TRUE(endpoint.running());
    ASSERT_GT(endpoint.port(), 0);

    const std::string response = httpGet(endpoint.port());
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(response.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(response.find("tie_endpoint_test_counter 11"),
              std::string::npos);
    EXPECT_NE(response.find("tie_endpoint_test_lat_us_count 1"),
              std::string::npos);

    // Sequential clients each get a fresh scrape.
    const std::string again = httpGet(endpoint.port());
    EXPECT_NE(again.find("tie_endpoint_test_counter 11"),
              std::string::npos);
    endpoint.stop();
    EXPECT_FALSE(endpoint.running());
}

TEST_F(ServeFlightTest, MetricsSnapshotFileWrittenWithoutListener)
{
    obs::setEnabled(true);
    obs::StatRegistry::instance()
        .counter("endpoint.snap_counter", "snapshot test")
        .add(5);

    const std::string path = "test_metrics_snapshot.prom";
    MetricsEndpoint endpoint;
    MetricsEndpointOptions mopts;
    mopts.port = -1; // no TCP listener: file snapshots only
    mopts.snapshot_path = path;
    mopts.snapshot_period_ms = 20;
    ASSERT_TRUE(endpoint.start(mopts));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    endpoint.stop(); // writes a final snapshot

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text.rfind("# HELP ", 0), 0u);
    EXPECT_NE(text.find("tie_endpoint_snap_counter 5"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST_F(ServeFlightTest, MetricsEndpointStopIsBoundedWithAStalledClient)
{
    // Regression for the blocking writeAll() bug: a scraper that
    // connects, sends its request and then never reads a byte used to
    // wedge the accept loop — and stop() — forever once the
    // exposition outgrew the socket buffers. Inflate the registry so
    // the response genuinely jams, stall a client, and require stop()
    // to return within the bounded-send budget.
    obs::setEnabled(true);
    auto &reg = obs::StatRegistry::instance();
    for (int i = 0; i < 2000; ++i)
        reg.counter("endpoint.stall_filler_counter_" +
                        std::to_string(i),
                    "stalled-client regression filler")
            .add(1);

    MetricsEndpoint endpoint;
    MetricsEndpointOptions mopts;
    mopts.port = 0;
    ASSERT_TRUE(endpoint.start(mopts));
    ASSERT_GT(endpoint.port(), 0);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    // Shrink the client's receive window to force the jam.
    const int tiny = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(endpoint.port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_GT(::send(fd, req, sizeof(req) - 1, 0), 0);
    // Give the endpoint time to accept and start (and jam) the send.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    const auto t0 = std::chrono::steady_clock::now();
    endpoint.stop();
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    // Send budget is 2000 ms; anything wildly beyond means the old
    // unbounded path came back. Generous slack for a loaded CI box.
    EXPECT_LT(elapsed_ms, 15000.0);
    ::close(fd);
}

TEST_F(ServeFlightTest, MetricsEndpointBindFailureStillSnapshots)
{
    // Occupy a port so the endpoint's bind must fail.
    const int blocker = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(blocker, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(blocker, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(blocker, 1), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(blocker,
                            reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    const int taken = static_cast<int>(ntohs(addr.sin_port));

    obs::setEnabled(true);
    obs::StatRegistry::instance()
        .counter("endpoint.degrade_counter", "bind-failure test")
        .add(3);

    // The regression: start() used to return false here and never
    // launch the snapshot thread, silently dropping the file the
    // caller asked for along with the (independently broken) port.
    const std::string path = "test_metrics_degraded.prom";
    MetricsEndpoint endpoint;
    MetricsEndpointOptions mopts;
    mopts.port = taken;
    mopts.snapshot_path = path;
    mopts.snapshot_period_ms = 20;
    ASSERT_TRUE(endpoint.start(mopts));
    EXPECT_TRUE(endpoint.running());
    EXPECT_EQ(endpoint.port(), 0); // the listener really is gone
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    endpoint.stop();
    ::close(blocker);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("tie_endpoint_degrade_counter 3"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST_F(ServeFlightTest, MetricsSnapshotRenameFailureIsSurvivable)
{
    // Point the snapshot at an existing directory: the temp file
    // writes fine but the atomic rename over a directory fails. The
    // endpoint must warn and keep running, not crash or corrupt.
    char tmpl[] = "snapshot_dir_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;

    MetricsEndpoint endpoint;
    MetricsEndpointOptions mopts;
    mopts.port = -1;
    mopts.snapshot_path = dir;
    mopts.snapshot_period_ms = 20;
    ASSERT_TRUE(endpoint.start(mopts));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    endpoint.stop(); // the final writeSnapshot also fails gracefully

    std::remove((dir + ".tmp").c_str());
    ::rmdir(dir.c_str());
}

} // namespace
} // namespace serve
} // namespace tie
