/**
 * @file
 * ThreadSanitizer stress of the cluster plane, compiled with
 * -fsanitize=thread even in the default build (see tests/CMakeLists).
 * Runs real sockets end to end: two in-process workers, a sharding
 * router, 16 closed-loop clients — then kills a worker in the middle
 * of the storm so the fail-over path (receiver death, monitor detach,
 * re-dispatch under mu_) races against live dispatch and the per-slot
 * wakes of many blocked waiters, and finishes with a drain handshake. Exits nonzero on any lost request
 * or bit mismatch; TSan aborts on any race.
 *
 * Sized for a 1-CPU CI box running instrumented code: small model,
 * a load long enough to outlast the kill at 50 ms (well under a
 * second), tight health period so death detection happens inside the
 * run.
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.hh"
#include "cluster/socket.hh"
#include "cluster/wire.hh"
#include "cluster/worker.hh"
#include "io/tie_format.hh"
#include "serve/load_gen.hh"
#include "tt/tt_matrix.hh"

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

/**
 * Pipeline bursts of 8 InferRequests at @p ep over one connection
 * while @p storm holds, reading each burst's responses in order; then
 * send Drain and expect every owed response before the DrainAck; then
 * keep sending bursts, each answered Rejected, until the worker ends
 * the stream. Sets @p drained once the ack is in; returns how many
 * responses arrived.
 */
uint64_t
rawClient(const tie::cluster::Endpoint &ep, size_t in_size,
          const std::atomic<bool> &storm, std::atomic<bool> &drained)
{
    using namespace tie::cluster;
    const uint32_t kDone =
        static_cast<uint32_t>(tie::serve::RequestStatus::Done);
    const uint32_t kRejected =
        static_cast<uint32_t>(tie::serve::RequestStatus::Rejected);
    std::string err;
    const int fd = connectTimed(ep, 1000, &err);
    expect(fd >= 0, "raw client connects");
    if (fd < 0)
        return 0;
    FrameConn conn(fd);
    std::vector<uint8_t> burst, frame;
    const std::vector<double> x(in_size, 0.5);
    uint64_t next_id = 0;
    auto sendBurst = [&](bool then_drain) {
        burst.clear();
        for (int i = 0; i < 8; ++i) {
            encodeInferRequest(next_id + i, 0, x.data(), x.size(),
                               &frame);
            burst.insert(burst.end(), frame.begin(), frame.end());
        }
        if (then_drain) {
            encodeFrame(WireType::Drain, nullptr, 0, &frame);
            burst.insert(burst.end(), frame.begin(), frame.end());
        }
        return sendAllTimed(fd, burst.data(), burst.size(), 5000, &err);
    };
    // False once the stream ends; a response must carry the next id.
    auto readBurst = [&](bool rejected_only) {
        for (int i = 0; i < 8; ++i, ++next_id) {
            WireFrame f;
            InferResponseMsg resp;
            if (conn.recvFrame(&f, 5000) != FrameConn::RecvStatus::Ok)
                return false;
            expect(decodeInferResponse(f, &resp), "raw response decodes");
            expect(resp.req_id == next_id, "raw responses in order");
            expect(resp.status == kRejected ||
                       (!rejected_only && resp.status == kDone),
                   "raw response Done, or Rejected after drain");
        }
        return true;
    };

    while (storm.load()) {
        expect(sendBurst(false), "raw burst sent");
        expect(readBurst(false), "raw burst answered");
    }
    expect(sendBurst(true), "raw burst + drain sent");
    expect(readBurst(false), "raw burst before drain answered");
    WireFrame f;
    expect(conn.recvFrame(&f, 5000) == FrameConn::RecvStatus::Ok &&
               f.type == WireType::DrainAck,
           "DrainAck after every owed response");
    drained.store(true);
    // Until stop() ends the stream: a send may then fail, a read ends.
    while (sendBurst(false) && readBurst(true)) {
    }
    return next_id;
}

} // namespace

int
main()
{
    using namespace tie;

    char dir_tmpl[] = "/tmp/tie-tsan-cluster-XXXXXX";
    if (::mkdtemp(dir_tmpl) == nullptr) {
        std::fprintf(stderr, "FAIL: mkdtemp\n");
        return 1;
    }
    const std::string dir = dir_tmpl;
    const std::string model_path = dir + "/model.tie";

    TtLayerConfig cfg;
    cfg.m = {3, 4};
    cfg.n = {4, 3};
    cfg.r = {1, 3, 1};
    Rng rng(99);
    io::saveTieModel(TtMatrix::random(cfg, rng), model_path);

    auto make_worker = [&](const std::string &name) {
        cluster::ClusterWorkerOptions wopts;
        wopts.listen.kind = cluster::Endpoint::Kind::Unix;
        wopts.listen.path = dir + "/" + name + ".sock";
        wopts.server.workers = 1;
        wopts.server.max_batch = 4;
        wopts.server.queue_capacity = 64;
        auto w = std::make_unique<cluster::ClusterWorker>(
            io::TieModel::load(model_path), wopts);
        std::string err;
        expect(w->start(&err), "worker start");
        return w;
    };
    auto w0 = make_worker("w0");
    auto w1 = make_worker("w1");

    cluster::RouterOptions ropts;
    ropts.workers = {w0->endpoint(), w1->endpoint()};
    ropts.health_period_ms = 20;
    ropts.health_timeout_ms = 2000;
    cluster::Router router(ropts);
    std::string err;
    expect(router.start(&err), "router start");

    const io::TieModel oracle = io::TieModel::load(model_path);
    serve::LoadGenOptions lopts;
    lopts.requests = 960;
    lopts.clients = 16;
    lopts.seed = 7;
    const std::vector<serve::Oracle> expected{serve::referenceOutputs(
        oracle.layers(), 0, 1, lopts.seed, lopts.requests)};

    // Kill one replica mid-load so dispatch, the dying receiver, the
    // monitor's detach and failOverLocked all race for real.
    // The raw connection pipelines to the survivor throughout.
    serve::LoadGenReport rep;
    std::atomic<bool> storm{true};
    std::atomic<bool> raw_drained{false};
    uint64_t raw_answered = 0;
    std::thread raw([&] {
        raw_answered = rawClient(w1->endpoint(), router.inSize(), storm,
                                 raw_drained);
    });
    std::thread chaos([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        w0->stop();
    });
    rep = serve::runLoadGen(std::vector<cluster::Router *>{&router},
                            lopts, &expected);
    chaos.join();
    storm.store(false);

    expect(rep.completed + rep.rejected + rep.timed_out ==
               lopts.requests,
           "every request terminal (zero lost)");
    expect(rep.mismatched == 0, "all outputs bit-exact");
    expect(rep.completed > 0, "survivor carried load");

    // Drain handshake races against the monitor's health probes.
    router.drainWorkers(/*timeout_ms=*/5000);
    expect(w1->waitDrained(/*timeout_ms=*/5000), "drain acked");
    for (int i = 0; i < 500 && !raw_drained.load(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    expect(raw_drained.load(), "raw connection drained");

    // shed counts submit-door refusals too, so the tight invariant
    // is: accepted requests are fully covered by terminal outcomes.
    const cluster::RouterStats stats = router.stats();
    expect(stats.done + stats.timed_out <= stats.accepted,
           "terminal outcomes never exceed accepted");
    expect(stats.done + stats.timed_out + stats.shed >=
               stats.accepted,
           "every accepted request reached a terminal outcome");

    router.stop();
    w0->stop();
    w1->stop(); // ends the raw connection's post-drain bursts
    raw.join();

    ::unlink(model_path.c_str());
    ::rmdir(dir.c_str());

    if (failures.load() != 0)
        return 1;
    std::printf("tsan_cluster_stress: OK (%zu done, %zu rejected, "
                "%zu timed out, %llu re-dispatched; %llu raw "
                "responses)\n",
                rep.completed, rep.rejected, rep.timed_out,
                static_cast<unsigned long long>(stats.redispatched),
                static_cast<unsigned long long>(raw_answered));
    return 0;
}
