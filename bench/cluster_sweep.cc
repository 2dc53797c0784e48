/**
 * @file
 * Cluster-plane sweep: replica-count scaling through the sharding
 * router over the real wire protocol.
 *
 * Each point runs K in-process ClusterWorkers (the same worker the
 * tie_worker binary wraps) on unix sockets, a Router sharding a
 * closed-loop load across them, and verifies every completed output
 * bit-exactly against the single-process batch-1 oracle — the
 * any-replica-same-bits contract under measurement, not just under
 * test. In-process replicas keep the bench hermetic (no binary-path
 * plumbing); the process-level path is exercised by tie_cli
 * cluster-bench and the chaos ctest.
 *
 * With --stats-json (default path BENCH_cluster.json) the run emits
 * the same "serve"-points schema as serve_sweep, so bench_diff gates
 * cluster throughput and tail latency against
 * bench/baselines/BENCH_cluster.json like any other report. --quick
 * shrinks request counts for smoke testing.
 *
 * --zoo DIR runs the same sweep over every artifact of the model zoo
 * at DIR: each point gives each artifact its own replicas and Router
 * and drives mixed traffic across the whole mix, each completed
 * output verified against its tenant's reference.
 */

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/router.hh"
#include "cluster/worker.hh"
#include "common/table.hh"
#include "io/tie_format.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "serve/load_gen.hh"
#include "tt/tt_matrix.hh"
#include "tune/zoo.hh"

using namespace tie;

namespace {

struct SweepPoint
{
    std::string label;
    size_t replicas = 1;
    serve::LoadGenOptions load;
    serve::LoadGenReport report;
    cluster::RouterStats stats;
};

void
appendPointJson(obs::JsonWriter &w, const SweepPoint &p,
                const std::vector<std::string> &names)
{
    const serve::LoadGenReport &r = p.report;
    w.beginObject();
    w.field("label", p.label);
    w.field("mode", "cluster-closed");
    w.field("replicas", static_cast<uint64_t>(p.replicas));
    w.field("clients", static_cast<uint64_t>(p.load.clients));
    w.field("requests", static_cast<uint64_t>(r.submitted));
    w.field("completed", static_cast<uint64_t>(r.completed));
    w.field("rejected", static_cast<uint64_t>(r.rejected));
    w.field("timed_out", static_cast<uint64_t>(r.timed_out));
    w.field("mismatched", static_cast<uint64_t>(r.mismatched));
    w.field("redispatched", p.stats.redispatched);
    w.field("achieved_qps", r.achieved_qps);
    w.field("latency_p50_us", r.latency.p50);
    w.field("latency_p95_us", r.latency.p95);
    w.field("latency_p99_us", r.latency.p99);
    w.field("latency_max_us", r.latency.max);
    if (names.size() > 1)
        serve::appendTenantsJson(w, r, names);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    // Session name "cluster" -> default stats path BENCH_cluster.json.
    obs::Session obs_session("cluster", &argc, argv);
    bool quick = false;
    std::string zoo_dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--zoo") == 0 && i + 1 < argc)
            zoo_dir = argv[++i];
    }

    std::cout << "== sharded cluster sweep =="
              << (quick ? " (quick)" : "") << "\n\n";

    char dir_tmpl[] = "/tmp/tie-cluster-sweep-XXXXXX";
    if (::mkdtemp(dir_tmpl) == nullptr) {
        std::cerr << "cannot create temp dir\n";
        return 1;
    }
    const std::string dir = dir_tmpl;

    // The tenants: the same mid-sized layer as serve_sweep (64 x 64,
    // rank 4), packaged as the .tie artifact every replica maps, or
    // every artifact of the zoo.
    TtLayerConfig cfg;
    cfg.m = {4, 4, 4};
    cfg.n = {4, 4, 4};
    cfg.r = {1, 4, 4, 1};
    Rng rng(1234);
    const std::string model_path = dir + "/model.tie";
    io::saveTieModel(TtMatrix::random(cfg, rng), model_path);
    std::string model_desc = cfg.toString();
    std::vector<std::string> names{model_desc}, paths{model_path};
    if (!zoo_dir.empty()) {
        model_desc = zoo_dir;
        names.clear();
        paths.clear();
        for (const tune::ZooEntry &e :
             tune::loadZooManifest(zoo_dir).entries) {
            names.push_back(e.name);
            paths.push_back(zoo_dir + "/" + e.file);
        }
        std::cout << "zoo: " << names.size() << " model(s) from "
                  << zoo_dir << "\n\n";
    }
    const size_t n_models = paths.size();

    const uint64_t seed = 42;
    const size_t requests = quick ? 64 : 512;
    std::vector<serve::Oracle> expected;
    for (size_t k = 0; k < n_models; ++k)
        expected.push_back(serve::referenceOutputs(
            io::TieModel::load(paths[k]).layers(), k, n_models, seed,
            requests));

    size_t mismatched = 0, lost = 0;
    std::vector<SweepPoint> points;
    const std::vector<size_t> replica_counts =
        quick ? std::vector<size_t>{1, 2}
              : std::vector<size_t>{1, 2, 4};

    for (const size_t replicas : replica_counts) {
        SweepPoint p;
        p.replicas = replicas;
        p.load.requests = requests;
        p.load.clients = 2 * replicas;
        p.load.seed = seed;
        p.label = std::to_string(replicas) + " replica(s)";

        // Each tenant gets its own replicas and Router.
        std::vector<std::unique_ptr<cluster::ClusterWorker>> workers;
        std::vector<std::unique_ptr<cluster::Router>> routers;
        std::vector<cluster::Router *> targets;
        for (size_t k = 0; k < n_models; ++k) {
            cluster::RouterOptions ropts;
            for (size_t i = 0; i < replicas; ++i) {
                cluster::ClusterWorkerOptions wopts;
                wopts.listen.kind = cluster::Endpoint::Kind::Unix;
                wopts.listen.path = dir + "/r" +
                                    std::to_string(replicas) + "m" +
                                    std::to_string(k) + "w" +
                                    std::to_string(i) + ".sock";
                wopts.server.workers = 1;
                wopts.server.max_batch = 8;
                wopts.server.batch_timeout_us = 200;
                wopts.server.queue_capacity = 128;
                workers.push_back(
                    std::make_unique<cluster::ClusterWorker>(
                        io::TieModel::load(paths[k]), wopts));
                std::string err;
                if (!workers.back()->start(&err)) {
                    std::cerr << "worker start failed: " << err
                              << "\n";
                    return 1;
                }
                ropts.workers.push_back(workers.back()->endpoint());
            }
            routers.push_back(std::make_unique<cluster::Router>(ropts));
            std::string err;
            if (!routers.back()->start(&err)) {
                std::cerr << "router start failed: " << err << "\n";
                return 1;
            }
            targets.push_back(routers.back().get());
        }
        p.report = serve::runLoadGen(targets, p.load, &expected);
        for (const std::unique_ptr<cluster::Router> &r : routers) {
            p.stats.redispatched += r->stats().redispatched;
            r->stop();
        }
        for (auto &w : workers)
            w->stop();

        mismatched += p.report.mismatched;
        lost += p.report.submitted -
                (p.report.completed + p.report.rejected +
                 p.report.timed_out);
        points.push_back(p);
    }

    TextTable t("cluster closed loop (2 clients per replica)");
    t.header({"point", "done/rej/to", "redisp", "req/s", "p50 us",
              "p95 us", "p99 us"});
    for (const SweepPoint &p : points) {
        const serve::LoadGenReport &r = p.report;
        t.row({p.label,
               std::to_string(r.completed) + "/" +
                   std::to_string(r.rejected) + "/" +
                   std::to_string(r.timed_out),
               std::to_string(p.stats.redispatched),
               TextTable::num(r.achieved_qps, 0),
               TextTable::num(r.latency.p50, 1),
               TextTable::num(r.latency.p95, 1),
               TextTable::num(r.latency.p99, 1)});
    }
    t.print();

    if (obs::Session *s = obs::Session::current();
        s != nullptr && s->statsRequested()) {
        obs::JsonWriter w;
        w.beginObject();
        w.field("model", model_desc);
        w.field("quick", quick);
        w.key("points").beginArray();
        for (const SweepPoint &p : points)
            appendPointJson(w, p, names);
        w.endArray();
        w.endObject();
        // The "serve" extra key is the schema bench_diff understands
        // (label-keyed points with achieved_qps / latency_*_us).
        s->setExtra("serve", w.str());
    }

    ::unlink(model_path.c_str());
    ::rmdir(dir.c_str());

    if (mismatched != 0 || lost != 0) {
        std::cerr << "FAIL: " << mismatched << " mismatched output(s), "
                  << lost << " lost request(s)\n";
        return 1;
    }
    std::cout << "\nall cluster outputs bit-identical to the "
                 "single-process reference; no requests lost\n";
    return 0;
}
