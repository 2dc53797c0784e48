#include "adapter.hh"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "cluster/process.hh"
#include "cluster/router.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "core/workloads.hh"
#include "io/tie_format.hh"
#include "linalg/gemm.hh"
#include "linalg/pack.hh"
#include "linalg/simd.hh"
#include "obs/flight_recorder.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "quant/fxp.hh"
#include "serve/server.hh"
#include "tt/infer_session.hh"
#include "tt/tt_matrix.hh"

#ifndef TIE_WORKER_PATH
#error "TIE_WORKER_PATH must name the tie_worker binary"
#endif

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error(what);
}

/** splitmix64: seeded replay operands, independent of the engine. */
uint64_t
mix(uint64_t &s)
{
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

template <typename T>
void
fillOperand(std::vector<T> &v, uint64_t &s)
{
    for (T &x : v) {
        const double u = double(mix(s) >> 11) * 0x1.0p-53 * 2.0 - 1.0;
        if constexpr (std::is_same_v<T, int16_t>)
            x = static_cast<int16_t>(u * 256.0);
        else
            x = static_cast<T>(u);
    }
}

} // namespace

// ---------------------------------------------------------------- model

void
writeModel(uint64_t seed, const std::string &path)
{
    tie::Rng rng(seed);
    const tie::TtMatrix tt =
        tie::TtMatrix::random(tie::workloads::vggFc7(), rng);
    const tie::TtMatrixFxp fxp =
        tie::TtMatrixFxp::quantizeAuto(tt, tie::FxpFormat{16, 8});
    tie::io::saveTieModel({tie::io::makeLayerSpec(tt, fxp)}, path);
}

struct Model::Impl
{
    tie::io::TieModel artifact;
};

Model::Model(const std::string &path) : impl_(std::make_unique<Impl>())
{
    std::string err;
    if (!tie::io::TieModel::tryLoad(path, &impl_->artifact, &err))
        fail("cannot load " + path + ": " + err);
    const tie::io::TieModel &m = impl_->artifact;
    if (m.layerCount() != 1 || !m.hasFxp())
        fail(path + ": expected one layer with an int16 twin");
    const tie::TtLayerConfig &cfg = m.config(0);
    info_.in_size = cfg.inSize();
    info_.out_size = cfg.outSize();
    for (size_t h = 1; h <= cfg.d(); ++h) {
        const StageShape s{cfg.coreRows(h), cfg.coreCols(h),
                           cfg.stageCols(h)};
        info_.stages.push_back(s);
        info_.mults_per_item += double(s.rows) * s.cols * s.stage_cols;
    }
}

Model::~Model() = default;

// -------------------------------------------------------------- session

template <>
struct Session<double>::Impl
{
    Impl(const Model &m, size_t b)
        : session(m.impl().artifact.layer(0)), batch(b),
          x(m.info().in_size * b), y(m.info().out_size * b)
    {}
    void run() { session.runPtr(x.data(), batch, y.data()); }

    tie::InferSessionD session;
    size_t batch;
    std::vector<double> x, y;
};

template <>
struct Session<float>::Impl
{
    Impl(const Model &m, size_t b)
        : cores(convert(m.impl().artifact.layer(0))),
          session(view(m.impl().artifact.config(0))), batch(b),
          x(m.info().in_size * b), y(m.info().out_size * b)
    {}
    void run() { session.runPtr(x.data(), batch, y.data()); }

    static std::vector<std::vector<float>>
    convert(const tie::TtLayerViewD &layer)
    {
        std::vector<std::vector<float>> out;
        for (const tie::CoreView<double> &c : layer.cores)
            out.emplace_back(c.data, c.data + c.rows * c.cols);
        return out;
    }

    tie::TtLayerView<float>
    view(const tie::TtLayerConfig &cfg) const
    {
        tie::TtLayerView<float> v{cfg, {}};
        for (size_t h = 1; h <= cfg.d(); ++h)
            v.cores.push_back({cores[h - 1].data(), cfg.coreRows(h),
                               cfg.coreCols(h)});
        return v;
    }

    std::vector<std::vector<float>> cores; ///< outlives the session
    tie::InferSessionF session;
    size_t batch;
    std::vector<float> x, y;
};

template <>
struct Session<int16_t>::Impl
{
    Impl(const Model &m, size_t b)
        : session(m.impl().artifact.fxpLayer(0)),
          x(m.info().in_size, b), y(m.info().out_size, b)
    {}
    void run() { session.runInto(x, y); }

    tie::InferSessionFxp session;
    tie::Matrix<int16_t> x, y;
};

template <typename T>
Session<T>::Session(const Model &model, size_t batch)
    : impl_(std::make_unique<Impl>(model, batch))
{
    impl_->run(); // warm: sizes the arena, packs the cores
}

template <typename T>
Session<T>::~Session() = default;

template <typename T>
T *
Session<T>::input()
{
    return impl_->x.data();
}

template <typename T>
const T *
Session<T>::output() const
{
    return impl_->y.data();
}

template <typename T>
void
Session<T>::run()
{
    impl_->run();
}

template <typename T>
size_t
Session<T>::arenaBytes() const
{
    return impl_->session.arenaBytes();
}

template <typename T>
size_t
Session<T>::packedBytes() const
{
    if constexpr (std::is_same_v<T, int16_t>)
        return 0;
    else
        return impl_->session.packedBytes();
}

template class Session<double>;
template class Session<float>;
template class Session<int16_t>;

// --------------------------------------------------------------- server

namespace {

uint64_t
encode(tie::serve::Ticket t)
{
    if (!t.valid())
        return 0;
    return ((uint64_t(t.gen) << 32) | t.id) + 1;
}

tie::serve::Ticket
decode(uint64_t v)
{
    tie::serve::Ticket t;
    t.id = uint32_t((v - 1) & 0xffffffffu);
    t.gen = uint32_t((v - 1) >> 32);
    return t;
}

} // namespace

struct InprocServer::Impl
{
    static tie::serve::ServerOptions
    options(ServePolicy p)
    {
        tie::serve::ServerOptions o;
        o.max_batch = p.max_batch;
        o.batch_timeout_us = p.window_us;
        o.queue_capacity = p.queue_capacity;
        o.workers = 1;
        return o;
    }

    Impl(const Model &m, ServePolicy p)
        : server(m.impl().artifact.layers(), options(p))
    {}

    tie::serve::Server server;
};

InprocServer::InprocServer(const Model &model, ServePolicy policy)
    : impl_(std::make_unique<Impl>(model, policy))
{}

InprocServer::~InprocServer() = default;

uint64_t
InprocServer::submit(const double *x)
{
    return encode(impl_->server.submit(x));
}

Outcome
InprocServer::wait(uint64_t ticket, std::vector<double> *y,
                   ServerTiming *timing)
{
    if (ticket == 0)
        return Outcome::Refused;
    tie::serve::RequestTiming rt;
    const tie::serve::RequestStatus st =
        impl_->server.wait(decode(ticket), y, &rt);
    if (timing)
        *timing = {rt.queue_wait_us, rt.service_us};
    switch (st) {
    case tie::serve::RequestStatus::Done:
        return Outcome::Done;
    case tie::serve::RequestStatus::TimedOut:
        return Outcome::TimedOut;
    default:
        return Outcome::Refused;
    }
}

// -------------------------------------------------------------- cluster

struct Cluster::Impl
{
    std::vector<tie::cluster::ChildProcess> children;
    std::unique_ptr<tie::cluster::Router> router;

    ~Impl()
    {
        if (router)
            router->stop();
        // tie_worker exits on stdin EOF; waitProcess alone would block
        // before closing it, so close first and reap with a deadline.
        for (tie::cluster::ChildProcess &c : children) {
            if (c.stdin_fd >= 0) {
                ::close(c.stdin_fd);
                c.stdin_fd = -1;
            }
        }
        const Clock::time_point t0 = Clock::now();
        for (tie::cluster::ChildProcess &c : children) {
            while (c.running() && msSince(t0) < 5000) {
                int status = 0;
                if (::waitpid(c.pid, &status, WNOHANG) == c.pid) {
                    c.pid = -1;
                    break;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
            if (c.running())
                tie::cluster::killProcess(c, SIGKILL);
            tie::cluster::waitProcess(c);
        }
    }
};

Cluster::Cluster(const std::string &model_path, size_t replicas,
                 ServePolicy policy, const std::string &socket_dir)
    : impl_(std::make_unique<Impl>())
{
    tie::cluster::RouterOptions ro;
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < replicas; ++i) {
        const std::string sock =
            "unix:" + socket_dir + "/w" + std::to_string(i) + ".sock";
        const std::vector<std::string> argv = {
            TIE_WORKER_PATH,
            "--model", model_path,
            "--listen", sock,
            "--workers", "1",
            "--max-batch", std::to_string(policy.max_batch),
            "--queue-cap", std::to_string(policy.queue_capacity),
            "--batch-timeout-us", std::to_string(policy.window_us)};
        tie::cluster::ChildProcess c;
        std::string err;
        if (!tie::cluster::spawnProcess(argv, &c, &err))
            fail("cannot spawn tie_worker: " + err);
        impl_->children.push_back(c);
        tie::cluster::Endpoint ep;
        if (!tie::cluster::parseEndpoint(sock, &ep, &err))
            fail("bad endpoint " + sock + ": " + err);
        ro.workers.push_back(ep);
    }
    for (tie::cluster::ChildProcess &c : impl_->children) {
        std::string line;
        if (!tie::cluster::readLine(c.stdout_fd, &line, 30000) ||
            line.rfind("ready ", 0) != 0)
            fail("tie_worker did not report ready");
    }
    spawn_ms_ = msSince(t0);

    t0 = Clock::now();
    impl_->router = std::make_unique<tie::cluster::Router>(ro);
    std::string err;
    if (!impl_->router->start(&err))
        fail("router start: " + err);
    router_ms_ = msSince(t0);
}

Cluster::~Cluster() = default;

uint64_t
Cluster::submit(const double *x)
{
    return impl_->router->submit(x).id;
}

Outcome
Cluster::wait(uint64_t ticket, std::vector<double> *y,
              ServerTiming *timing)
{
    if (ticket == 0)
        return Outcome::Refused;
    if (timing)
        *timing = {};
    switch (impl_->router->wait(tie::cluster::ClusterTicket{ticket}, y)) {
    case tie::cluster::ClusterStatus::Done:
        return Outcome::Done;
    case tie::cluster::ClusterStatus::TimedOut:
        return Outcome::TimedOut;
    default:
        return Outcome::Refused;
    }
}

std::vector<pid_t>
Cluster::workerPids() const
{
    std::vector<pid_t> pids;
    for (const tie::cluster::ChildProcess &c : impl_->children)
        pids.push_back(c.pid);
    return pids;
}

ClusterCounters
Cluster::counters() const
{
    const tie::cluster::RouterStats s = impl_->router->stats();
    return {s.redispatched, s.shed, s.worker_deaths};
}

// --------------------------------------------------------- stage replay

template <typename T>
struct StageReplay<T>::Impl
{
    struct Stage
    {
        size_t m = 0, k = 0, n = 0;
        tie::pack::AlignedBuf<T> pa; ///< packed core (float types)
        std::vector<T> a, b, c;
    };
    std::vector<Stage> stages;
    double madds = 0;
    tie::MacFormat fmt; ///< int16 stages: the default TIE datapath
};

template <typename T>
StageReplay<T>::StageReplay(const ModelInfo &info, size_t batch,
                            uint64_t seed)
    : impl_(std::make_unique<Impl>())
{
    uint64_t s = seed;
    impl_->stages.resize(info.stages.size());
    for (size_t i = 0; i < info.stages.size(); ++i) {
        typename Impl::Stage &st = impl_->stages[i];
        st.m = info.stages[i].rows;
        st.k = info.stages[i].cols;
        st.n = info.stages[i].stage_cols * batch;
        st.a.resize(st.m * st.k);
        st.b.resize(st.k * st.n);
        st.c.resize(st.m * st.n);
        fillOperand(st.a, s);
        fillOperand(st.b, s);
        if constexpr (!std::is_same_v<T, int16_t>) {
            st.pa.resize(tie::pack::packedAElems(st.m, st.k));
            tie::pack::packA(st.m, st.k, st.a.data(), st.pa.data());
        }
        impl_->madds += double(st.m) * st.k * st.n;
    }
}

template <typename T>
StageReplay<T>::~StageReplay() = default;

template <typename T>
size_t
StageReplay<T>::stageCount() const
{
    return impl_->stages.size();
}

template <typename T>
void
StageReplay<T>::runStage(size_t h)
{
    typename Impl::Stage &st = impl_->stages.at(h - 1);
    if constexpr (std::is_same_v<T, int16_t>) {
        tie::fxpMatmulRaw(st.m, st.k, st.n, st.a.data(), st.b.data(),
                          impl_->fmt, st.c.data());
    } else {
        std::fill(st.c.begin(), st.c.end(), T(0));
        tie::gemm::gemmPackedBlocked(st.m, st.n, st.k, st.pa.data(),
                                     st.b.data(), st.c.data(), false);
    }
}

template <typename T>
double
StageReplay<T>::madds() const
{
    return impl_->madds;
}

template class StageReplay<double>;
template class StageReplay<float>;
template class StageReplay<int16_t>;

struct CalibGemm::Impl
{
    static constexpr size_t kM = 64, kK = 64, kN = 4096;
    tie::pack::AlignedBuf<double> pa;
    std::vector<double> a = std::vector<double>(kM * kK);
    std::vector<double> b = std::vector<double>(kK * kN);
    std::vector<double> c = std::vector<double>(kM * kN);
};

CalibGemm::CalibGemm() : impl_(std::make_unique<Impl>())
{
    uint64_t s = 0xca11b;
    fillOperand(impl_->a, s);
    fillOperand(impl_->b, s);
    impl_->pa.resize(tie::pack::packedAElems(Impl::kM, Impl::kK));
    tie::pack::packA(Impl::kM, Impl::kK, impl_->a.data(),
                     impl_->pa.data());
}

CalibGemm::~CalibGemm() = default;

void
CalibGemm::run()
{
    std::fill(impl_->c.begin(), impl_->c.end(), 0.0);
    tie::gemm::gemmPackedBlocked(Impl::kM, Impl::kN, Impl::kK,
                                 impl_->pa.data(), impl_->b.data(),
                                 impl_->c.data(), false);
}

double
CalibGemm::madds() const
{
    return double(Impl::kM) * Impl::kK * Impl::kN;
}

// ------------------------------------------------------- observability

void
setTracing(bool on)
{
    tie::obs::Trace::instance().setCategories(false, false);
    tie::obs::Trace::instance().setServeCategory(false);
    tie::obs::FlightRecorder &fr = tie::obs::FlightRecorder::instance();
    if (on) {
        tie::obs::FlightRecorder::Options o;
        o.ring_capacity = size_t(1) << 17;
        o.max_rings = 64;
        o.drain_period_us = 2000;
        o.emit_trace = false;
        fr.reset();
        fr.start(o);
    } else {
        fr.stop();
    }
    tie::obs::setEnabled(on);
}

uint64_t
flightDropped()
{
    return tie::obs::FlightRecorder::instance().dropped();
}

double
servedBatchSizeMean()
{
    return tie::obs::StatRegistry::instance()
        .distribution("serve.batch_size")
        .snapshot()
        .mean();
}

void
resetStats()
{
    tie::obs::StatRegistry::instance().resetAll();
}

std::string
statsJson()
{
    return tie::obs::StatRegistry::instance().toJson();
}

std::string
isaName()
{
    return tie::simd::isaName(tie::simd::activeIsa());
}

size_t
poolThreads()
{
    return tie::threadCount();
}

void
setPoolThreads(size_t n)
{
    tie::setThreadCount(n);
}

} // namespace e2e
