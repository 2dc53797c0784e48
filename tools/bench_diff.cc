/**
 * @file
 * Perf-regression gate: diff two BENCH_*.json files and exit nonzero
 * when the current run regressed past a threshold.
 *
 * Both report schemas are understood, sniffed from the document:
 *
 *  - google-benchmark JSON (bench/micro_kernels.cc): every entry of
 *    "benchmarks" contributes <name>.real_time and <name>.cpu_time
 *    (lower is better) and, when present, <name>.items_per_second /
 *    <name>.bytes_per_second (higher is better).
 *  - obs::Session reports (bench/serve_sweep.cc and friends): every
 *    "serve"."points" record contributes its achieved_qps (higher is
 *    better) and latency/queue-wait/service percentiles (lower is
 *    better) keyed by the point label; every "stats"."distributions"
 *    entry contributes its p50/p95/p99.
 *
 * Direction is inferred from the metric name by the shared
 * token-based classifier (obs/metric_direction.hh): time/latency and
 * duration-unit tokens are lower-is-better, qps / per-second tokens
 * higher-is-better; anything else (including near-misses like
 * timed_out) is reported but never gates. A regression is a direction-
 * adjusted worsening of more than --threshold percent whose absolute
 * change also exceeds --floor (noise floor, metric's native unit).
 * A metric only the current run has is listed as "added". A baseline
 * metric the current run lacks is listed as "missing" and fails the
 * gate: a deleted or renamed benchmark must come with a baseline edit,
 * or it would escape the comparison silently.
 *
 * Exit codes: 0 clean, 2 regression(s), 1 usage/parse error or
 * missing metric(s).
 */

#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "obs/json.hh"
#include "obs/metric_direction.hh"

using namespace tie;

namespace {

using Direction = obs::MetricDirection;

struct Metric
{
    double value = 0.0;
    Direction dir = Direction::Informational;
};

using MetricMap = std::map<std::string, Metric>;

void
addMetric(MetricMap &m, const std::string &name, double value)
{
    m[name] = Metric{value, obs::metricDirection(name)};
}

/** google-benchmark schema: the "benchmarks" array. */
void
extractGoogleBenchmark(const obs::JsonValue &doc, MetricMap &m)
{
    const obs::JsonValue *benches = doc.find("benchmarks");
    for (const obs::JsonValue &b : benches->array) {
        const obs::JsonValue *name = b.find("name");
        if (name == nullptr ||
            name->type != obs::JsonValue::Type::String)
            continue;
        // Aggregate rows (mean/median/stddev) would double-count.
        if (b.find("aggregate_name") != nullptr)
            continue;
        for (const char *key :
             {"real_time", "cpu_time", "items_per_second",
              "bytes_per_second"}) {
            const obs::JsonValue *v = b.find(key);
            if (v != nullptr &&
                v->type == obs::JsonValue::Type::Number)
                addMetric(m, name->string + "." + key, v->number);
        }
    }
}

/** obs::Session schema: serve points + registry distributions. */
void
extractSessionReport(const obs::JsonValue &doc, MetricMap &m)
{
    if (const obs::JsonValue *serve = doc.find("serve")) {
        const obs::JsonValue *points = serve->find("points");
        if (points != nullptr &&
            points->type == obs::JsonValue::Type::Array) {
            for (const obs::JsonValue &p : points->array) {
                const obs::JsonValue *label = p.find("label");
                if (label == nullptr)
                    continue;
                for (const char *key :
                     {"achieved_qps", "latency_p50_us",
                      "latency_p95_us", "latency_p99_us",
                      "queue_wait_p50_us", "queue_wait_p99_us",
                      "service_p50_us", "service_p99_us"}) {
                    const obs::JsonValue *v = p.find(key);
                    if (v != nullptr &&
                        v->type == obs::JsonValue::Type::Number)
                        addMetric(m,
                                  label->string + "." + key,
                                  v->number);
                }
            }
        }
    }
    const obs::JsonValue *stats = doc.find("stats");
    if (stats == nullptr)
        return;
    const obs::JsonValue *dists = stats->find("distributions");
    if (dists == nullptr ||
        dists->type != obs::JsonValue::Type::Object)
        return;
    for (const auto &kv : dists->object) {
        for (const char *pct : {"p50", "p95", "p99"}) {
            const obs::JsonValue *v = kv.second.find(pct);
            if (v != nullptr &&
                v->type == obs::JsonValue::Type::Number)
                addMetric(m, kv.first + "." + pct, v->number);
        }
    }
}

bool
loadMetrics(const std::string &path, MetricMap &m)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.is_open()) {
        std::cerr << "bench_diff: cannot open " << path << "\n";
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    std::string err;
    const obs::JsonValue doc = obs::parseJson(ss.str(), &err);
    if (doc.type != obs::JsonValue::Type::Object) {
        std::cerr << "bench_diff: " << path << ": "
                  << (err.empty() ? "not a JSON object" : err) << "\n";
        return false;
    }
    const obs::JsonValue *benches = doc.find("benchmarks");
    if (benches != nullptr &&
        benches->type == obs::JsonValue::Type::Array)
        extractGoogleBenchmark(doc, m);
    else
        extractSessionReport(doc, m);
    if (m.empty()) {
        std::cerr << "bench_diff: " << path
                  << ": no recognizable metrics (neither a "
                     "google-benchmark report nor an obs session "
                     "report with serve points / distributions)\n";
        return false;
    }
    return true;
}

int
usage()
{
    std::cerr
        << "usage: bench_diff <baseline.json> <current.json>\n"
           "                  [--threshold=PCT] [--floor=ABS]\n"
           "                  [--match=SUBSTR] [--all]\n\n"
           "Diffs two BENCH_*.json reports (google-benchmark or obs\n"
           "session schema). Exits 2 when any gated metric worsened\n"
           "by more than PCT percent (default 10) with an absolute\n"
           "change above ABS in the metric's unit (default 0), and\n"
           "1 when a baseline metric is missing from the current run.\n"
           "--match compares only metrics whose name contains SUBSTR\n"
           "(for per-family thresholds: run once broadly, again with\n"
           "a tighter threshold on one family).\n"
           "--all prints every metric, not just changed/gated ones.\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> paths;
    double threshold = 10.0;
    double floor_abs = 0.0;
    std::string match;
    bool show_all = false;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--threshold=", 12) == 0)
            threshold = std::atof(a + 12);
        else if (std::strncmp(a, "--floor=", 8) == 0)
            floor_abs = std::atof(a + 8);
        else if (std::strncmp(a, "--match=", 8) == 0)
            match = a + 8;
        else if (std::strcmp(a, "--all") == 0)
            show_all = true;
        else if (std::strncmp(a, "--", 2) == 0)
            return usage();
        else
            paths.push_back(a);
    }
    if (paths.size() != 2)
        return usage();

    MetricMap base, cur;
    if (!loadMetrics(paths[0], base) || !loadMetrics(paths[1], cur))
        return 1;
    if (!match.empty()) {
        auto filter = [&](MetricMap &m) {
            for (auto it = m.begin(); it != m.end();)
                it = it->first.find(match) == std::string::npos
                         ? m.erase(it)
                         : std::next(it);
        };
        filter(base);
        filter(cur);
        if (cur.empty()) {
            std::cerr << "bench_diff: --match=" << match
                      << " selects no metric in " << paths[1] << "\n";
            return 1;
        }
    }

    TextTable t("bench_diff: " + paths[0] + " -> " + paths[1]);
    t.header({"metric", "baseline", "current", "delta %", "verdict"});

    size_t regressions = 0, improved = 0, compared = 0;
    for (const auto &kv : cur) {
        const auto bit = base.find(kv.first);
        if (bit == base.end()) {
            t.row({kv.first, "-", TextTable::num(kv.second.value),
                   "-", "added"});
            continue;
        }
        ++compared;
        const double b = bit->second.value;
        const double c = kv.second.value;
        const double delta =
            b != 0.0 ? (c - b) / std::fabs(b) * 100.0
                     : (c == 0.0 ? 0.0 : 100.0);
        // Direction-adjusted: positive `worse` means a worse result.
        double worse = 0.0;
        if (kv.second.dir == Direction::LowerBetter)
            worse = delta;
        else if (kv.second.dir == Direction::HigherBetter)
            worse = -delta;
        const bool gated =
            kv.second.dir != Direction::Informational;
        const bool regressed = gated && worse > threshold &&
                               std::fabs(c - b) > floor_abs;
        const char *verdict = !gated         ? "info"
                              : regressed    ? "REGRESSED"
                              : worse < -threshold ? "improved"
                                                   : "ok";
        if (regressed)
            ++regressions;
        else if (gated && worse < -threshold)
            ++improved;
        if (show_all || regressed || (gated && worse < -threshold))
            t.row({kv.first, TextTable::num(b), TextTable::num(c),
                   TextTable::num(delta, 1), verdict});
    }
    size_t missing = 0;
    for (const auto &kv : base)
        if (cur.find(kv.first) == cur.end()) {
            ++missing;
            t.row({kv.first, TextTable::num(kv.second.value), "-",
                   "-", "missing"});
        }

    t.print();
    std::cout << compared << " metric(s) compared, " << regressions
              << " regressed, " << improved << " improved, " << missing
              << " missing (threshold " << TextTable::num(threshold, 1)
              << "%, floor " << TextTable::num(floor_abs, 3) << ")\n";
    if (regressions > 0)
        return 2;
    return missing > 0 ? 1 : 0;
}
