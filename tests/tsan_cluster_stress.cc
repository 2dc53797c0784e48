/**
 * @file
 * ThreadSanitizer stress of the cluster plane, compiled with
 * -fsanitize=thread even in the default build (see tests/CMakeLists).
 * Runs real sockets end to end: two in-process workers, a sharding
 * router, concurrent closed-loop clients — then kills a worker in the
 * middle of the storm so the fail-over path (receiver death, monitor
 * detach, re-dispatch under mu_) races against live dispatch, and
 * finishes with a drain handshake. Exits nonzero on any lost request
 * or bit mismatch; TSan aborts on any race.
 *
 * Sized for a 1-CPU CI box running instrumented code: small model,
 * short load, tight health period so death detection happens inside
 * the run.
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
    lopts.requests = 96;
    lopts.clients = 4;
    lopts.seed = 7;
    const std::vector<serve::Oracle> expected{serve::referenceOutputs(
        oracle.layers(), 0, 1, lopts.seed, lopts.requests)};

    // Kill one replica mid-load so dispatch, the dying receiver, the
    // monitor's detach and failOverLocked all race for real.
    serve::LoadGenReport rep;
    std::thread chaos([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        w0->stop();
    });
    rep = serve::runLoadGen(std::vector<cluster::Router *>{&router},
                            lopts, &expected);
    chaos.join();

    expect(rep.completed + rep.rejected + rep.timed_out ==
               lopts.requests,
           "every request terminal (zero lost)");
    expect(rep.mismatched == 0, "all outputs bit-exact");
    expect(rep.completed > 0, "survivor carried load");

    // Drain handshake races against the monitor's health probes.
    router.drainWorkers(/*timeout_ms=*/5000);
    expect(w1->waitDrained(/*timeout_ms=*/5000), "drain acked");

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
    w1->stop();

    ::unlink(model_path.c_str());
    ::rmdir(dir.c_str());

    if (failures.load() != 0)
        return 1;
    std::printf("tsan_cluster_stress: OK (%zu done, %zu rejected, "
                "%zu timed out)\n",
                rep.completed, rep.rejected, rep.timed_out);
    return 0;
}
