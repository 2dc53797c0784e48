#include "serve/load_gen.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "obs/json.hh"

namespace tie {
namespace serve {

namespace detail {

void
fillRequestInput(uint64_t seed, size_t index, std::vector<double> &x)
{
    // Mix the index into the seed (splitmix-style odd constant) so
    // consecutive requests draw unrelated streams.
    Rng rng(seed + 0x9e3779b97f4a7c15ull * (index + 1));
    for (double &v : x)
        v = rng.uniform(-1.0, 1.0);
}

void
Tally::record(RequestStatus st, double lat_us,
              const RequestTiming *timing, const std::vector<double> &y,
              const std::vector<double> *ref)
{
    ++submitted;
    if (st == RequestStatus::Rejected) {
        ++rejected;
        return;
    }
    if (st == RequestStatus::TimedOut) {
        ++timed_out;
        return;
    }
    TIE_REQUIRE(st == RequestStatus::Done, "load target returned ",
                toString(st));
    ++completed;
    latency_us.push_back(lat_us);
    if (timing != nullptr) {
        queue_wait_us.push_back(timing->queue_wait_us);
        service_us.push_back(timing->service_us);
    }
    // Bit-exact, not approximately-equal: every serving path must
    // produce the batch-1 reference's bits.
    if (ref != nullptr &&
        (y.size() != ref->size() ||
         (!y.empty() &&
          std::memcmp(y.data(), ref->data(), y.size() * sizeof(double)) !=
              0)))
        ++mismatched;
}

void
Tally::merge(const Tally &o)
{
    submitted += o.submitted;
    completed += o.completed;
    rejected += o.rejected;
    timed_out += o.timed_out;
    mismatched += o.mismatched;
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    queue_wait_us.insert(queue_wait_us.end(), o.queue_wait_us.begin(),
                         o.queue_wait_us.end());
    service_us.insert(service_us.end(), o.service_us.begin(),
                      o.service_us.end());
}

void
checkLoad(const LoadGenOptions &opts, size_t n_tenants,
          const std::vector<Oracle> *expected, bool timed)
{
    TIE_CHECK_ARG(n_tenants >= 1, "load gen needs at least one tenant");
    TIE_CHECK_ARG(opts.requests >= 1, "load gen needs requests >= 1");
    TIE_CHECK_ARG(opts.clients >= 1, "load gen needs clients >= 1");
    TIE_CHECK_ARG(std::isfinite(opts.offered_qps) &&
                      opts.offered_qps >= 0,
                  "offered_qps must be finite and >= 0, got ",
                  opts.offered_qps);
    TIE_CHECK_ARG(timed || opts.offered_qps == 0,
                  "open loop needs targets that report RequestTiming");
    if (expected == nullptr)
        return;
    TIE_CHECK_ARG(expected->size() == n_tenants, "got ",
                  expected->size(), " oracles for ", n_tenants,
                  " tenants");
    for (size_t k = 0; k < n_tenants; ++k) {
        // Tenant k serves global ids k, k + N, ... below requests.
        const size_t tenant_reqs =
            opts.requests > k ? (opts.requests - k - 1) / n_tenants + 1
                              : 0;
        TIE_CHECK_ARG((*expected)[k].size() >= tenant_reqs, "tenant ", k,
                      ": ", (*expected)[k].size(),
                      " expected outputs for ", tenant_reqs,
                      " requests");
    }
}

LoadGenReport
finishReport(const std::vector<Tally> &tallies, double wall_s,
             const LoadGenOptions &opts)
{
    auto reportOf = [&](const Tally &t) {
        LoadGenReport rep;
        rep.open_loop = opts.offered_qps > 0;
        rep.offered_qps = opts.offered_qps;
        rep.wall_s = wall_s;
        rep.submitted = t.submitted;
        rep.completed = t.completed;
        rep.rejected = t.rejected;
        rep.timed_out = t.timed_out;
        rep.mismatched = t.mismatched;
        rep.achieved_qps = wall_s > 0 ? t.completed / wall_s : 0;
        rep.latency = summarize(t.latency_us);
        rep.queue_wait = summarize(t.queue_wait_us);
        rep.service = summarize(t.service_us);
        return rep;
    };
    Tally all;
    std::vector<LoadGenReport> per_tenant;
    for (const Tally &t : tallies) {
        per_tenant.push_back(reportOf(t));
        all.merge(t);
    }
    LoadGenReport rep = reportOf(all);
    rep.per_tenant = std::move(per_tenant);
    return rep;
}

} // namespace detail

std::vector<double>
makeRequestInput(uint64_t seed, size_t index, size_t n)
{
    std::vector<double> x(n);
    detail::fillRequestInput(seed, index, x);
    return x;
}

Oracle
referenceOutputs(const std::vector<TtLayerViewD> &model, size_t slot,
                 size_t n_tenants, uint64_t seed, size_t requests)
{
    TIE_CHECK_ARG(!model.empty(),
                  "referenceOutputs needs at least one layer");
    TIE_CHECK_ARG(slot < n_tenants, "tenant slot ", slot,
                  " out of range for ", n_tenants, " tenants");
    std::vector<InferSessionD> sessions;
    sessions.reserve(model.size());
    for (const TtLayerViewD &layer : model)
        sessions.push_back(InferSessionD(layer));

    Oracle out;
    std::vector<double> cur, nxt;
    for (size_t i = slot; i < requests; i += n_tenants) {
        cur.resize(model.front().cfg.inSize());
        detail::fillRequestInput(seed, i, cur);
        std::vector<double> *a = &cur;
        std::vector<double> *b = &nxt;
        for (InferSessionD &s : sessions) {
            b->resize(s.config().outSize());
            s.runPtr(a->data(), 1, b->data());
            std::swap(a, b);
        }
        out.push_back(*a);
    }
    return out;
}

void
appendTenantsJson(obs::JsonWriter &w, const LoadGenReport &rep,
                  const std::vector<std::string> &names)
{
    w.key("models").beginArray();
    for (size_t k = 0; k < names.size(); ++k) {
        const LoadGenReport &t = rep.per_tenant[k];
        w.beginObject();
        w.field("model", names[k]);
        w.field("completed", static_cast<uint64_t>(t.completed));
        w.field("mismatched", static_cast<uint64_t>(t.mismatched));
        w.field("achieved_qps", t.achieved_qps);
        w.field("latency_p50_us", t.latency.p50);
        w.field("latency_p99_us", t.latency.p99);
        w.endObject();
    }
    w.endArray();
}

LatencySummary
summarize(std::vector<double> samples)
{
    LatencySummary s;
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    double sum = 0;
    for (double v : samples)
        sum += v;
    const size_t n = samples.size();
    auto at = [&](double p) {
        const size_t rank = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        return samples[std::min(n - 1, rank > 0 ? rank - 1 : 0)];
    };
    s.mean = sum / static_cast<double>(n);
    s.p50 = at(50);
    s.p95 = at(95);
    s.p99 = at(99);
    s.max = samples.back();
    return s;
}

} // namespace serve
} // namespace tie
