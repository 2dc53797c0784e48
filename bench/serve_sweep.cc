/**
 * @file
 * Serving-layer sweep: offered load x batching policy, with the
 * deterministic closed- and open-loop generators (serve/load_gen.hh).
 *
 * The closed-loop half shows the concurrency/batching tradeoff (more
 * clients fill bigger batches; the batch window trades p50 for
 * throughput); the open-loop half pushes fixed arrival rates through
 * one worker to expose queueing, and the final overload point adds an
 * enqueue deadline so admission control and deadline shedding both
 * fire. Every completed output is verified bit-exactly against a
 * batch-1 reference; the process exits nonzero on any mismatch.
 *
 * With --stats-json (default path BENCH_serve.json) the run emits a
 * structured "serve" extra — one record per sweep point — plus the
 * serve.* registry stats (queue-wait / batch-size / service
 * distributions with p50/p95/p99) accumulated across the whole sweep.
 * --quick shrinks the request counts for smoke testing
 * (tests/bench_smoke.sh --serve).
 *
 * Each point publishes its tenants into a ModelRegistry built with
 * the point's policy: the sweep's one layer, or with --zoo DIR every
 * artifact of the model zoo at DIR (tie_cli zoo-build), driven as
 * mixed traffic with each completed output verified bit-exactly
 * against its tenant's reference (docs/autotuning.md).
 */

#include <unistd.h>

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "io/tie_format.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "serve/load_gen.hh"
#include "serve/model_registry.hh"
#include "tt/tt_matrix.hh"
#include "tune/zoo.hh"

using namespace tie;
using namespace tie::serve;

namespace {

struct SweepPoint
{
    std::string label;
    ServerOptions server;
    LoadGenOptions load;
    LoadGenReport report;
};

/**
 * Run the whole sweep under the flight recorder so the report's
 * serve.phase.* distributions carry per-phase (queue / batch / gather
 * / infer / scatter) p50/p95/p99 attribution. stop() drains before
 * the obs::Session flushes the stats JSON.
 */
struct FlightScope
{
    FlightScope() { obs::FlightRecorder::instance().start(); }
    ~FlightScope() { obs::FlightRecorder::instance().stop(); }
};

void
appendPointJson(obs::JsonWriter &w, const SweepPoint &p,
                const std::vector<std::string> &names)
{
    const LoadGenReport &r = p.report;
    w.beginObject();
    w.field("label", p.label);
    w.field("mode", r.open_loop ? "open" : "closed");
    w.field("workers", static_cast<uint64_t>(p.server.workers));
    w.field("max_batch", static_cast<uint64_t>(p.server.max_batch));
    w.field("batch_timeout_us", p.server.batch_timeout_us);
    w.field("queue_capacity",
            static_cast<uint64_t>(p.server.queue_capacity));
    w.field("clients", static_cast<uint64_t>(p.load.clients));
    w.field("offered_qps", r.offered_qps);
    w.field("deadline_us", p.load.deadline_us);
    w.field("requests", static_cast<uint64_t>(r.submitted));
    w.field("completed", static_cast<uint64_t>(r.completed));
    w.field("rejected", static_cast<uint64_t>(r.rejected));
    w.field("timed_out", static_cast<uint64_t>(r.timed_out));
    w.field("mismatched", static_cast<uint64_t>(r.mismatched));
    w.field("achieved_qps", r.achieved_qps);
    w.field("latency_p50_us", r.latency.p50);
    w.field("latency_p95_us", r.latency.p95);
    w.field("latency_p99_us", r.latency.p99);
    w.field("latency_max_us", r.latency.max);
    w.field("queue_wait_p50_us", r.queue_wait.p50);
    w.field("queue_wait_p99_us", r.queue_wait.p99);
    w.field("service_p50_us", r.service.p50);
    w.field("service_p99_us", r.service.p99);
    if (names.size() > 1)
        appendTenantsJson(w, r, names);
    w.endObject();
}

void
printPoints(const std::string &title,
            const std::vector<SweepPoint> &points)
{
    TextTable t(title);
    t.header({"point", "done/rej/to", "req/s", "p50 us", "p95 us",
              "p99 us", "batch window us"});
    for (const SweepPoint &p : points) {
        const LoadGenReport &r = p.report;
        t.row({p.label,
               std::to_string(r.completed) + "/" +
                   std::to_string(r.rejected) + "/" +
                   std::to_string(r.timed_out),
               TextTable::num(r.achieved_qps, 0),
               TextTable::num(r.latency.p50, 1),
               TextTable::num(r.latency.p95, 1),
               TextTable::num(r.latency.p99, 1),
               std::to_string(p.server.batch_timeout_us)});
    }
    t.print();
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // --stats-json / --trace-out / TIE_STATS_JSON / TIE_TRACE; the
    // session name makes the default stats path BENCH_serve.json.
    obs::Session obs_session("serve", &argc, argv);
    // Constructed after the session: its destructor (final recorder
    // drain) runs before the session flushes the report.
    FlightScope flight;
    bool quick = false;
    std::string zoo_dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--zoo") == 0 && i + 1 < argc)
            zoo_dir = argv[++i];
    }

    std::cout << "== dynamic-batching serve sweep =="
              << (quick ? " (quick)" : "") << "\n\n";

    // The tenants: one mid-sized TT layer (64 x 64, rank 4), packaged
    // as a .tie artifact — the serving layer is model-agnostic, so the
    // sweep isolates batching and queueing — or every zoo artifact.
    char dir_tmpl[] = "/tmp/tie-serve-sweep-XXXXXX";
    if (::mkdtemp(dir_tmpl) == nullptr) {
        std::cerr << "cannot create temp dir\n";
        return 1;
    }
    const std::string model_path = std::string(dir_tmpl) + "/model.tie";
    TtLayerConfig cfg;
    cfg.m = {4, 4, 4};
    cfg.n = {4, 4, 4};
    cfg.r = {1, 4, 4, 1};
    Rng rng(1234);
    io::saveTieModel(TtMatrix::random(cfg, rng), model_path);
    std::string model_desc = cfg.toString();
    std::vector<std::string> names{"model"}, paths{model_path};
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

    const uint64_t seed = 42;
    const size_t closed_requests = quick ? 48 : 512;
    const size_t open_requests = quick ? 48 : 256;
    std::vector<Oracle> expected;
    for (size_t k = 0; k < paths.size(); ++k)
        expected.push_back(referenceOutputs(
            io::TieModel::load(paths[k]).layers(), k, paths.size(), seed,
            std::max(closed_requests, open_requests)));

    // Every tenant published into one registry built with the point's
    // policy; each entry's server carries its own flight tag, so the
    // phase attribution splits per model.
    auto run = [&](SweepPoint &p) {
        ModelRegistry registry(p.server);
        std::vector<RegistryTenant> tenants;
        for (size_t k = 0; k < paths.size(); ++k) {
            registry.publishFile(names[k], paths[k]);
            tenants.push_back({&registry, names[k]});
        }
        p.report = runLoadGen(tenants, p.load, &expected);
    };

    size_t mismatched = 0;
    std::vector<SweepPoint> closed, open;

    // Closed loop: concurrency x batching policy.
    for (size_t clients : {size_t(1), size_t(4), size_t(8)}) {
        for (const auto &policy :
             {std::pair<size_t, uint64_t>{1, 0},
              std::pair<size_t, uint64_t>{8, 200},
              std::pair<size_t, uint64_t>{32, 1000}}) {
            SweepPoint p;
            p.server.workers = 1;
            p.server.max_batch = policy.first;
            p.server.batch_timeout_us = policy.second;
            p.server.queue_capacity = 64;
            p.load.requests = closed_requests;
            p.load.clients = clients;
            p.load.seed = seed;
            p.label = std::to_string(clients) + " cli, batch<=" +
                      std::to_string(policy.first);
            run(p);
            mismatched += p.report.mismatched;
            closed.push_back(p);
        }
    }
    printPoints("closed loop (1 worker)", closed);

    // Open loop: arrival-rate sweep, then an overloaded point with an
    // enqueue deadline and a tight queue so shedding fires.
    for (double qps : {5000.0, 20000.0, 80000.0}) {
        SweepPoint p;
        p.server.workers = 1;
        p.server.max_batch = 16;
        p.server.batch_timeout_us = 500;
        p.server.queue_capacity = 64;
        p.load.requests = open_requests;
        p.load.offered_qps = qps;
        p.load.seed = seed;
        p.label = "offered " + std::to_string(size_t(qps)) + " qps";
        run(p);
        mismatched += p.report.mismatched;
        open.push_back(p);
    }
    {
        SweepPoint p;
        p.server.workers = 1;
        p.server.max_batch = 4;
        p.server.batch_timeout_us = 2000;
        p.server.queue_capacity = 8;
        p.load.requests = open_requests;
        p.load.offered_qps = 50000;
        p.load.deadline_us = 1500;
        p.load.seed = seed;
        p.label = "overload + 1.5 ms deadline";
        run(p);
        mismatched += p.report.mismatched;
        open.push_back(p);
    }
    printPoints("open loop (1 worker, batch<=16 unless noted)", open);

    if (obs::Session *s = obs::Session::current();
        s != nullptr && s->statsRequested()) {
        obs::JsonWriter w;
        w.beginObject();
        w.field("model", model_desc);
        w.field("quick", quick);
        w.key("points").beginArray();
        for (const SweepPoint &p : closed)
            appendPointJson(w, p, names);
        for (const SweepPoint &p : open)
            appendPointJson(w, p, names);
        w.endArray();
        w.endObject();
        s->setExtra("serve", w.str());
    }

    ::unlink(model_path.c_str());
    ::rmdir(dir_tmpl);

    if (mismatched != 0) {
        std::cerr << "FAIL: " << mismatched
                  << " served output(s) differed from the batch-1 "
                     "reference\n";
        return 1;
    }
    std::cout << "all served outputs bit-identical to the batch-1 "
                 "reference\n";
    return 0;
}
