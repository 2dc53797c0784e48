/**
 * @file
 * tie_e2e — end-to-end benchmark of the TT inference engine.
 *
 *   tie_e2e --workload fc_batch|fc_serve|fc_cluster
 *           [--seed S] [--seconds T] [--trace 0|1] [--quick]
 *           [--out DIR] [--work DIR] [--git-sha SHA]
 *
 * One process runs one workload from a cold start. It pins itself to
 * one CPU and runs the engine's thread pool at one thread; the
 * tie_worker replicas it spawns inherit both. The seed fixes the
 * weights, the input pools, the request-to-input mapping and the
 * Poisson gaps; the engine sees only the generated inputs. Every output
 * is compared bit for bit with a batch-1 oracle of its own dtype; on
 * any mismatch or lost request the program exits 1 and prints no
 * metric. Otherwise it prints a provenance block, one line per metric
 * ("<workload> <metric> <value> <unit>"), writes BENCH_e2e.<workload>
 * .json (and, traced, .layers.json and .trace.json) into --out, and
 * ends with one JSON object: the end-to-end metrics untraced, the
 * per-layer metrics traced. e2e/README.md describes the workloads.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adapter.hh"

// ------------------------------------------------------ heap allocations
//
// Every operator new in the process is counted, so a phase's delta is
// the engine's allocations plus the benchmark's own, which are kept out
// of steady state (buffers are sized before timing starts).

namespace {
std::atomic<uint64_t> g_allocs{0};

void *
countedAlloc(size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *
operator new(size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](size_t n)
{
    return countedAlloc(n);
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
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;
using e2e::Outcome;

const Clock::time_point g_epoch = Clock::now();

/** Nanoseconds since process start (steady clock). */
int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - g_epoch)
        .count();
}

double
secondsSince(int64_t t0)
{
    return double(nowNs() - t0) * 1e-9;
}

/** Nearest-rank percentile; +inf samples (missed requests) sort last. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t k = size_t(std::ceil(p * double(v.size())));
    k = std::clamp<size_t>(k, 1, v.size());
    return v[k - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Timed metrics are read from windows of about 50 ms of work. On a
 * shared host a co-tenant slows the whole core, through its caches and
 * memory bandwidth rather than by taking CPU time, by up to half, for
 * anything from milliseconds to minutes; no statistic over a whole run
 * holds still under that. A window is long enough for a steady median
 * and short next to those slow spells.
 */
constexpr double kWindowS = 0.05;

/**
 * The quiet-window value of samples in time order (durations or
 * latencies, lower is better): cut them into windows of @p per_window
 * consecutive samples, take each window's median and return the 5th
 * percentile of those medians. That is what the program sustains
 * whenever the host leaves its core alone for a window: one window in
 * twenty reaches it, so a single lucky window does not set it. Too few
 * samples for one window: the plain median.
 */
double
quietWindow(const std::vector<double> &v, size_t per_window)
{
    per_window = std::max<size_t>(1, per_window);
    std::vector<double> medians;
    for (size_t i = 0; i + per_window <= v.size(); i += per_window)
        medians.push_back(median(std::vector<double>(
            v.begin() + std::ptrdiff_t(i),
            v.begin() + std::ptrdiff_t(i + per_window))));
    return medians.empty() ? median(v) : percentile(medians, 0.05);
}

/** At least this many samples make one window's median. */
constexpr size_t kMinPerWindow = 20;

/**
 * Samples per window of back-to-back work, from their median duration:
 * about 50 ms of them, and at least kMinPerWindow.
 */
size_t
perWindow(const std::vector<double> &us)
{
    const double m = median(us);
    const double n = m > 0 ? std::round(kWindowS * 1e6 / m) : 0;
    return std::max(kMinPerWindow, size_t(n));
}

/** splitmix64 stream: one per purpose, all derived from --seed. */
struct Stream
{
    uint64_t s;
    uint64_t
    next()
    {
        uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    double unit() { return double(next() >> 11) * 0x1.0p-53; }
    size_t below(size_t n) { return size_t(next() % n); }
};

template <typename T>
bool
sameBits(const T &a, const T &b)
{
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// ---------------------------------------------------- process counters

struct Usage
{
    double cpu_us = 0;
    double ctx = 0;
    uint64_t allocs = 0;
};

Usage
selfUsage()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_us = double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
               double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    u.ctx = double(ru.ru_nvcsw + ru.ru_nivcsw);
    u.allocs = g_allocs.load(std::memory_order_relaxed);
    return u;
}

/** This process's usage since @p u0. */
Usage
usageSince(const Usage &u0)
{
    Usage u = selfUsage();
    u.cpu_us -= u0.cpu_us;
    u.ctx -= u0.ctx;
    u.allocs -= u0.allocs;
    return u;
}

/** A "Key:   value kB" field of /proc/<pid>/status (0 if absent). */
double
procStatus(const std::string &pid, const char *key)
{
    std::ifstream f("/proc/" + pid + "/status");
    std::string line;
    const size_t klen = std::strlen(key);
    while (std::getline(f, line))
        if (line.compare(0, klen, key) == 0 && line.size() > klen &&
            line[klen] == ':')
            return std::strtod(line.c_str() + klen + 1, nullptr);
    return 0;
}

/** utime + stime of a process in microseconds (/proc/<pid>/stat). */
double
procCpuUs(pid_t pid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string all((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
    const size_t rp = all.rfind(')');
    if (rp == std::string::npos)
        return 0;
    std::istringstream rest(all.substr(rp + 2));
    std::string tok;
    double ticks = 0;
    // Fields after "(comm)": state is field 3; utime/stime are 14/15.
    for (int field = 3; field <= 15 && (rest >> tok); ++field)
        if (field >= 14)
            ticks += std::strtod(tok.c_str(), nullptr);
    return ticks * 1e6 / double(::sysconf(_SC_CLK_TCK));
}

double
procCtx(pid_t pid)
{
    const std::string p = std::to_string(pid);
    return procStatus(p, "voluntary_ctxt_switches") +
           procStatus(p, "nonvoluntary_ctxt_switches");
}

/** Peak resident set of a process in MiB (VmHWM). */
double
peakRssMiB(const std::string &pid)
{
    return procStatus(pid, "VmHWM") / 1024.0;
}

/** Busy jiffies of each CPU, from the "cpuN" lines of /proc/stat. */
std::map<int, double>
cpuBusyJiffies()
{
    std::map<int, double> out;
    std::ifstream f("/proc/stat");
    std::string line;
    while (std::getline(f, line)) {
        if (line.compare(0, 3, "cpu") != 0 ||
            !std::isdigit(static_cast<unsigned char>(line[3])))
            continue;
        std::istringstream in(line.substr(3));
        int cpu = 0;
        double user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
               irq = 0, softirq = 0, steal = 0;
        in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
            softirq >> steal;
        out[cpu] = user + nice + system + irq + softirq + steal;
    }
    return out;
}

/**
 * Pin this process, before any thread starts, to the CPU it may use
 * that was least busy over a 100 ms look (the highest-numbered one on a
 * tie), so every thread and child process inherits it. Returns the
 * CPU. On a shared host, threads spread over several vCPUs wait on
 * whichever vCPU the host has slowed, and a wake-up that crosses vCPUs
 * pays for waking an idle one; on one CPU a request costs what the
 * program's own code costs.
 */
int
pinToOneCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    std::map<int, double> j0 = cpuBusyJiffies();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::map<int, double> j1 = cpuBusyJiffies();
    int cpu = -1;
    double least = 0;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &set))
            continue;
        const double busy = j1[c] - j0[c];
        if (cpu < 0 || busy <= least) {
            cpu = c;
            least = busy;
        }
    }
    if (cpu < 0)
        throw std::runtime_error("no CPU in the affinity mask");
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (::sched_setaffinity(0, sizeof set, &set) != 0)
        throw std::runtime_error("sched_setaffinity failed");
    return cpu;
}

// ------------------------------------------------------------- results

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Reported by every workload, untraced (BENCHMARK.json end_to_end). */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"rss_peak_mib", "MiB"},
};

/** Batch of fc_batch's offline calls, and of its per-layer probes. */
constexpr size_t kBatch = 8;

/**
 * Reported by every workload, traced (BENCHMARK.json per_layer). A
 * layer the workload does not exercise reads 0.
 */
constexpr MetricDef kLayers[] = {
    {"linalg.calib_gmadds", "Gmadd/s"},
    {"linalg.stage_gmadds.f64.b1", "Gmadd/s"},
    {"linalg.stage_gmadds.f64.b8", "Gmadd/s"},
    {"linalg.stage_gmadds.f32.b8", "Gmadd/s"},
    {"quant.stage_gmacs.i16.b8", "Gmac/s"},
    {"tt.gmults.f64.b1", "Gmult/s"},
    {"tt.gmults.f64.b8", "Gmult/s"},
    {"tt.gmults.f32.b8", "Gmult/s"},
    {"tt.gmults.i16.b8", "Gmult/s"},
    {"tt.gmults.f64.b32", "Gmult/s"},
    {"tt.kernel_fraction.f64.b1", "ratio"},
    {"tt.kernel_fraction.f64.b8", "ratio"},
    {"tt.kernel_fraction.f32.b8", "ratio"},
    {"tt.kernel_fraction.i16.b8", "ratio"},
    {"tt.arena_bytes.b8", "bytes"},
    {"tt.packed_bytes", "bytes"},
    {"tt.heap_allocs_per_run", "count"},
    {"io.load_ms", "ms"},
    {"setup.warm_ms", "ms"},
    {"serve.submit_us.p50", "us"},
    {"serve.submit_us.p99", "us"},
    {"serve.queue_wait_us.p50", "us"},
    {"serve.queue_wait_us.p99", "us"},
    {"serve.service_us.p50", "us"},
    {"serve.service_us.p99", "us"},
    {"serve.notify_us.p50", "us"},
    {"serve.batch_size.mean", "count"},
    {"serve.cpu_us_per_request", "us"},
    {"serve.ctx_switches_per_request", "count"},
    {"serve.heap_allocs_per_request", "count"},
    {"serve.rejected", "count"},
    {"serve.timed_out", "count"},
    {"cluster.inproc_p50_us", "us"},
    {"cluster.overhead_p50_us", "us"},
    {"cluster.submit_us.p50", "us"},
    {"cluster.submit_us.p99", "us"},
    {"cluster.router_cpu_us_per_request", "us"},
    {"cluster.worker_cpu_us_per_request", "us"},
    {"cluster.ctx_switches_per_request", "count"},
    {"cluster.router_heap_allocs_per_request", "count"},
    {"cluster.redispatched", "count"},
    {"cluster.shed", "count"},
    {"cluster.worker_deaths", "count"},
    {"setup.spawn_ms", "ms"},
    {"setup.router_start_ms", "ms"},
    {"loadgen.send_lag_us.p99", "us"},
    {"obs.overhead_pct", "%"},
    {"flight.dropped", "count"},
};

struct Extra
{
    std::string name;
    double value;
    std::string unit;
};

/** Correctness state shared by every thread of a run. */
struct Checker
{
    std::atomic<uint64_t> mismatched{0};
    std::atomic<uint64_t> lost{0};
    std::mutex mu;
    std::string first;

    void
    mismatch(const char *where, size_t item)
    {
        if (mismatched.fetch_add(1) == 0) {
            std::lock_guard<std::mutex> lk(mu);
            first = std::string(where) + ": output of pool item " +
                    std::to_string(item) + " differs from its oracle";
        }
    }

    bool ok() const { return mismatched == 0 && lost == 0; }
};

/**
 * Benchmark-side spans, kept in memory and written as a Chrome trace
 * at exit. Spans of one request share its id; parent is the index of
 * the enclosing span (-1 at the root). Recording stops, and is
 * counted, once the preallocated log is full.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name = "";
        uint64_t id = 0;
        int64_t parent = -1;
        int64_t t0_ns = 0;
        int64_t t1_ns = 0;
        uint32_t track = 0;
    };

    void
    enable(size_t capacity)
    {
        spans_.resize(capacity);
        on_ = true;
    }

    bool on() const { return on_; }

    /** Index of the recorded span, -1 when off or full. */
    int64_t
    add(const char *name, uint64_t id, int64_t parent, int64_t t0,
        int64_t t1, uint32_t track)
    {
        if (!on_)
            return -1;
        const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= spans_.size()) {
            skipped_.fetch_add(1, std::memory_order_relaxed);
            return -1;
        }
        spans_[i] = {name, id, parent, t0, t1, track};
        return int64_t(i);
    }

    size_t
    size() const
    {
        return std::min(next_.load(), spans_.size());
    }
    const Span &at(size_t i) const { return spans_[i]; }
    uint64_t skipped() const { return skipped_; }

  private:
    bool on_ = false;
    std::vector<Span> spans_;
    std::atomic<size_t> next_{0};
    std::atomic<uint64_t> skipped_{0};
};

struct Run
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool quick = false;
    std::string out_dir = ".";
    std::string work_dir;
    std::string git_sha = "unknown";
    int cpu = -1;

    std::map<std::string, double> metrics; ///< kEndToEnd / kLayers
    std::vector<Extra> extras;             ///< printed, not in JSON
    uint64_t attempted = 0;
    uint64_t failed = 0;
    Checker check;
    SpanLog spans;

    void
    extra(const std::string &name, double v, const char *unit)
    {
        extras.push_back({name, v, unit});
    }
};

// ------------------------------------------------------ inputs, oracles

/** Seeded input pool in the three dtypes (f32/i16 derived from f64). */
struct Pool
{
    size_t n = 0, in = 0;
    std::vector<double> f64;
    std::vector<float> f32;
    std::vector<int16_t> i16;

    Pool(size_t items, size_t in_size, uint64_t seed, bool all_dtypes)
        : n(items), in(in_size), f64(items * in_size)
    {
        Stream s{seed ^ 0x9001};
        for (double &x : f64)
            x = s.unit() * 2.0 - 1.0;
        if (all_dtypes) {
            f32.assign(f64.begin(), f64.end());
            i16.resize(f64.size());
            for (size_t i = 0; i < f64.size(); ++i)
                i16[i] = int16_t(std::lround(f64[i] * 256.0)); // Q8
        }
    }

    template <typename T>
    const T *
    item(size_t i) const
    {
        if constexpr (std::is_same_v<T, double>)
            return f64.data() + i * in;
        else if constexpr (std::is_same_v<T, float>)
            return f32.data() + i * in;
        else
            return i16.data() + i * in;
    }
};

/** Batch-1 outputs of every pool item, in dtype T. */
template <typename T>
std::vector<T>
buildOracle(const e2e::Model &model, const Pool &pool)
{
    const size_t in = model.info().in_size, out = model.info().out_size;
    e2e::Session<T> s(model, 1);
    std::vector<T> o(pool.n * out);
    for (size_t i = 0; i < pool.n; ++i) {
        std::copy_n(pool.item<T>(i), in, s.input());
        s.run();
        std::copy_n(s.output(), out, o.data() + i * out);
    }
    return o;
}

/** Request-to-input mapping: the k-th request reads pool item map[k]. */
struct Mapping
{
    std::vector<uint32_t> idx;

    Mapping(size_t pool_n, uint64_t seed)
    {
        Stream s{seed ^ 0x3a9};
        idx.resize(size_t(1) << 16);
        for (uint32_t &v : idx)
            v = uint32_t(s.below(pool_n));
    }
    size_t at(size_t k) const { return idx[k & (idx.size() - 1)]; }
};

// --------------------------------------------------------- load phases

constexpr double kInf = std::numeric_limits<double>::infinity();

/** One load phase as measured (or several of one kind, appended). */
struct Phase
{
    size_t burst = 1; ///< closed loop: requests per burst
    size_t latency_per_window = 0; ///< open loop: arrivals per window
    uint64_t sent = 0, ok = 0, refused = 0, timed_out = 0;
    uint64_t unsent = 0; ///< open loop: due, but the phase ran out
    std::vector<double> latency_us; ///< time order; miss = inf
    std::vector<double> burst_us;   ///< closed loop: time per burst
    std::vector<double> submit_us, queue_us, service_us, notify_us;
    std::vector<double> lag_us; ///< open loop: pacer lateness
    Usage usage;                ///< this process, delta over the phase
    double peer_cpu_us = 0;     ///< worker processes, delta
    double peer_ctx = 0;        ///< worker processes, delta

    double p50() const { return percentile(latency_us, 0.50); }
    double p99() const { return percentile(latency_us, 0.99); }

    /** Median latency of the quiet windows (see quietWindow). */
    double
    quietP50() const
    {
        return quietWindow(latency_us, latency_per_window
                                           ? latency_per_window
                                           : perWindow(latency_us));
    }

    /** Completions per second in the quiet windows of the bursts. */
    double
    quietRate() const
    {
        const double t = quietWindow(burst_us, perWindow(burst_us));
        return t > 0 ? double(burst) * 1e6 / t : 0;
    }

    void
    append(const Phase &o)
    {
        burst = o.burst;
        latency_per_window = o.latency_per_window;
        sent += o.sent;
        ok += o.ok;
        refused += o.refused;
        timed_out += o.timed_out;
        unsent += o.unsent;
        for (auto [to, from] :
             {std::pair{&latency_us, &o.latency_us}, {&burst_us, &o.burst_us},
              {&submit_us, &o.submit_us}, {&queue_us, &o.queue_us},
              {&service_us, &o.service_us}, {&notify_us, &o.notify_us},
              {&lag_us, &o.lag_us}})
            to->insert(to->end(), from->begin(), from->end());
        usage.cpu_us += o.usage.cpu_us;
        usage.ctx += o.usage.ctx;
        usage.allocs += o.usage.allocs;
        peer_cpu_us += o.peer_cpu_us;
        peer_ctx += o.peer_ctx;
    }
};

/**
 * Run @p a and @p b in turn, in chunks of about a second, @p a_share of
 * each chunk to @p a, for @p seconds in all: both then sample the whole
 * span of the run, its quiet spells included.
 */
void
alternate(double seconds, double a_share,
          const std::function<void(double)> &a,
          const std::function<void(double)> &b)
{
    const int chunks = std::max(1, int(std::lround(seconds)));
    const double each = seconds / chunks;
    for (int c = 0; c < chunks; ++c) {
        a(each * a_share);
        b(each * (1 - a_share));
    }
}

struct ServeSetup
{
    const Pool &pool;
    const std::vector<double> &oracle;
    const Mapping &map;
    size_t out = 0;
};

/**
 * Open loop at @p rate for @p seconds: Poisson arrivals from the seed;
 * one pacer submits every overdue request at once and one collector
 * waits the tickets in arrival order (one server worker completes them
 * in that order). Latency runs from the due time to the return of
 * wait(). When @p max_backlog requests are outstanding the pacer holds
 * back instead of letting the queue bound refuse them, so overload
 * shows as late requests; requests still unsent a second after the
 * schedule ends count as misses (infinite latency).
 */
Phase
openLoop(Run &run, e2e::Target &target, const ServeSetup &ss,
         double rate, double seconds, size_t first_req, size_t max_backlog)
{
    // Schedule first, so the pacer only reads precomputed due times.
    // Seeded per phase (first_req) so no two phases share their gaps.
    std::vector<int64_t> due;
    {
        Stream s{run.seed ^ 0x5eed ^ (uint64_t(first_req) << 20)};
        double t = 0;
        for (;;) {
            t += -std::log(1.0 - s.unit()) / rate;
            if (t >= seconds)
                break;
            due.push_back(int64_t(t * 1e9));
        }
    }
    const size_t n = due.size();
    std::vector<uint64_t> ticket(n);
    std::vector<int64_t> sub0(n), sub1(n), wait0(n), done(n);
    std::vector<Outcome> outcome(n, Outcome::Refused);
    std::vector<e2e::ServerTiming> timing(n);

    constexpr uint64_t kClosed = uint64_t(1) << 63;
    std::atomic<uint64_t> sent{0}; ///< count | kClosed when finished
    std::atomic<uint64_t> collected{0};

    const Usage u0 = selfUsage();
    const int64_t start = nowNs() + 2'000'000;
    const int64_t stop = start + int64_t((seconds + 1.0) * 1e9);

    std::thread pacer([&] {
        size_t i = 0;
        while (i < n) {
            const int64_t t = nowNs();
            if (t >= stop)
                break;
            if (t < start + due[i]) {
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(start + due[i] - t));
                continue;
            }
            while (i < n && start + due[i] <= nowNs()) {
                if (i - collected.load(std::memory_order_relaxed) >=
                    max_backlog)
                    break;
                sub0[i] = nowNs();
                ticket[i] = target.submit(
                    ss.pool.item<double>(ss.map.at(first_req + i)));
                sub1[i] = nowNs();
                ++i;
            }
            sent.store(i, std::memory_order_release);
            sent.notify_all();
            if (i < n && i - collected.load() >= max_backlog)
                std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        sent.store(i | kClosed, std::memory_order_release);
        sent.notify_all();
    });

    std::thread collector([&] {
        std::vector<double> y(ss.out);
        for (size_t i = 0; i < n; ++i) {
            uint64_t s = sent.load(std::memory_order_acquire);
            while ((s & ~kClosed) <= i && !(s & kClosed)) {
                sent.wait(s, std::memory_order_acquire);
                s = sent.load(std::memory_order_acquire);
            }
            if ((s & ~kClosed) <= i)
                return; // never sent: the phase ran out of time
            wait0[i] = nowNs();
            outcome[i] = target.wait(ticket[i], &y, &timing[i]);
            done[i] = nowNs();
            collected.fetch_add(1, std::memory_order_relaxed);
            if (outcome[i] != Outcome::Done)
                continue;
            const size_t item = ss.map.at(first_req + i);
            if (std::memcmp(y.data(), ss.oracle.data() + item * ss.out,
                            ss.out * sizeof(double)) != 0)
                run.check.mismatch("open loop", item);
        }
    });
    pacer.join();
    collector.join();

    Phase ph;
    ph.latency_per_window =
        std::max(kMinPerWindow, size_t(std::round(rate * kWindowS)));
    ph.sent = sent.load() & ~kClosed;
    ph.usage = usageSince(u0);
    for (size_t i = 0; i < ph.sent; ++i) {
        ph.lag_us.push_back(double(sub0[i] - (start + due[i])) * 1e-3);
        if (outcome[i] != Outcome::Done) {
            ++(outcome[i] == Outcome::Refused ? ph.refused : ph.timed_out);
            ph.latency_us.push_back(kInf);
            continue;
        }
        ++ph.ok;
        ph.latency_us.push_back(double(done[i] - (start + due[i])) * 1e-3);
        const double submit_us = double(sub1[i] - sub0[i]) * 1e-3;
        ph.submit_us.push_back(submit_us);
        ph.queue_us.push_back(timing[i].queue_us);
        ph.service_us.push_back(timing[i].service_us);
        ph.notify_us.push_back(double(done[i] - sub0[i]) * 1e-3 -
                               submit_us - timing[i].queue_us -
                               timing[i].service_us);
        if (run.spans.on()) {
            const uint64_t id = first_req + i + 1;
            const int64_t r = run.spans.add("request", id, -1,
                                            start + due[i], done[i], 0);
            run.spans.add("submit", id, r, sub0[i], sub1[i], 0);
            const int64_t w =
                run.spans.add("wait", id, r, wait0[i], done[i], 0);
            // Server-side children, placed from RequestTiming durations.
            const int64_t q0 = sub1[i];
            const int64_t q1 = q0 + int64_t(timing[i].queue_us * 1e3);
            run.spans.add("queue", id, w, q0, q1, 1);
            run.spans.add("service", id, w, q1,
                          q1 + int64_t(timing[i].service_us * 1e3), 1);
        }
    }
    ph.unsent = n - ph.sent;
    ph.latency_us.insert(ph.latency_us.end(), ph.unsent, kInf);
    return ph;
}

/**
 * Closed loop from the calling thread, in bursts: submit @p burst
 * requests back to back, then wait for each in order; repeat for
 * @p seconds. With burst = max_batch and a batch window, the server
 * forms one full batch per burst; with burst 1 it serves a lone
 * client. Every burst's time is kept. A lone client's requests also
 * keep their latency, from submit to the return of wait(), and in a
 * traced run its split into submit, queue, service and notify. The
 * buffers are sized up front, so nothing allocates in steady state.
 */
Phase
closedLoop(Run &run, e2e::Target &target, const ServeSetup &ss,
           size_t burst, double seconds, size_t first_req)
{
    // No burst or request takes under a microsecond: sized by time
    // alone, the buffers (and the peak RSS) do not depend on speed.
    const size_t cap =
        std::min<size_t>(size_t(seconds * 1e6) + 16, size_t(1) << 18);
    const bool lone = burst == 1;
    const bool split = lone && run.trace;
    Phase ph;
    ph.burst = burst;
    ph.burst_us.assign(cap, 0.0);
    if (lone)
        ph.latency_us.assign(cap, 0.0);
    if (split)
        for (std::vector<double> *v :
             {&ph.submit_us, &ph.queue_us, &ph.service_us, &ph.notify_us})
            v->assign(cap, 0.0);

    std::vector<double> y(ss.out);
    std::vector<uint64_t> ticket(burst);
    std::vector<size_t> item(burst);
    std::vector<int64_t> sub0(burst), sub1(burst);
    size_t bursts = 0, samples = 0, req = first_req;
    const Usage u0 = selfUsage();
    const int64_t stop = nowNs() + int64_t(seconds * 1e9);
    while (nowNs() < stop) {
        const int64_t b0 = nowNs();
        for (size_t k = 0; k < burst; ++k) {
            item[k] = ss.map.at(req++);
            sub0[k] = nowNs();
            ticket[k] = target.submit(ss.pool.item<double>(item[k]));
            sub1[k] = nowNs();
        }
        for (size_t k = 0; k < burst; ++k) {
            e2e::ServerTiming tm;
            const int64_t w0 = nowNs();
            const Outcome o = target.wait(ticket[k], &y, &tm);
            const int64_t t = nowNs();
            const bool done = o == Outcome::Done;
            if (done) {
                ++ph.ok;
                if (std::memcmp(y.data(),
                                ss.oracle.data() + item[k] * ss.out,
                                ss.out * sizeof(double)) != 0)
                    run.check.mismatch("closed loop", item[k]);
            } else {
                ++(o == Outcome::Refused ? ph.refused : ph.timed_out);
            }
            if (lone && samples < cap) {
                const double e2e_us = double(t - sub0[k]) * 1e-3;
                const double submit_us = double(sub1[k] - sub0[k]) * 1e-3;
                ph.latency_us[samples] = done ? e2e_us : kInf;
                if (split) {
                    ph.submit_us[samples] = submit_us;
                    ph.queue_us[samples] = tm.queue_us;
                    ph.service_us[samples] = tm.service_us;
                    ph.notify_us[samples] =
                        e2e_us - submit_us - tm.queue_us - tm.service_us;
                }
                ++samples;
            }
            if (!done)
                continue;
            if (run.spans.on() && bursts % 16 == 0) {
                const uint64_t id = req - burst + k + 1;
                const int64_t r =
                    run.spans.add("request", id, -1, sub0[k], t, 0);
                run.spans.add("submit", id, r, sub0[k], sub1[k], 0);
                run.spans.add("wait", id, r, w0, t, 0);
            }
        }
        if (bursts < cap)
            ph.burst_us[bursts] = double(nowNs() - b0) * 1e-3;
        ++bursts;
    }
    ph.usage = usageSince(u0);
    ph.burst_us.resize(std::min(bursts, cap));
    ph.latency_us.resize(samples);
    if (split)
        for (std::vector<double> *v :
             {&ph.submit_us, &ph.queue_us, &ph.service_us, &ph.notify_us})
            v->resize(samples);
    ph.sent = ph.ok + ph.refused + ph.timed_out;
    return ph;
}

void
countPhase(Run &run, const Phase &ph)
{
    run.attempted += ph.sent + ph.unsent;
    run.failed += ph.refused + ph.timed_out + ph.unsent;
}

// ------------------------------------------------------- timed helpers

/**
 * Median set-up time in seconds: @p once (returning its own duration)
 * is repeated for about 5% of the run, at least five times.
 */
double
medianSetup(const Run &run, const std::function<double()> &once)
{
    const size_t min_reps = run.quick ? 2 : 5;
    std::vector<double> v;
    const int64_t t0 = nowNs();
    while (v.size() < min_reps ||
           (v.size() < 51 && secondsSince(t0) < 0.05 * run.seconds))
        v.push_back(once());
    return median(v);
}

/** Call fn repeatedly for about @p seconds; returns calls per second. */
double
ratePerSecond(double seconds, const std::function<void()> &fn)
{
    fn(); // warm
    size_t calls = 0;
    const int64_t t0 = nowNs();
    do {
        fn();
        ++calls;
    } while (secondsSince(t0) < seconds);
    return double(calls) / secondsSince(t0);
}

/**
 * Kernel rates every traced run measures on its own model's shapes:
 * the calibration GEMM and the stage replays, in Gmadd/s.
 */
struct Probe
{
    double calib = 0;
    double replay_f64_b1 = 0, replay_f64 = 0, replay_f32 = 0,
           replay_i16 = 0; ///< the last three at kBatch
};

template <typename T>
double
replayRate(Run &run, const e2e::ModelInfo &info, size_t batch,
           double slice, const char *span_name)
{
    e2e::StageReplay<T> r(info, batch, run.seed);
    const double passes = ratePerSecond(slice, [&] {
        for (size_t h = r.stageCount(); h >= 1; --h) {
            const int64_t t0 = nowNs();
            r.runStage(h);
            run.spans.add(span_name, h, -1, t0, nowNs(), 2);
        }
    });
    return passes * r.madds() * 1e-9;
}

Probe
probeKernels(Run &run, const e2e::ModelInfo &info, double slice)
{
    Probe p;
    e2e::CalibGemm calib;
    p.calib = ratePerSecond(slice, [&] { calib.run(); }) * calib.madds() *
              1e-9;
    p.replay_f64_b1 =
        replayRate<double>(run, info, 1, slice, "replay.f64.b1");
    p.replay_f64 =
        replayRate<double>(run, info, kBatch, slice, "replay.f64.b8");
    p.replay_f32 =
        replayRate<float>(run, info, kBatch, slice, "replay.f32.b8");
    p.replay_i16 =
        replayRate<int16_t>(run, info, kBatch, slice, "replay.i16.b8");
    return p;
}

void
putProbe(Run &run, const Probe &p)
{
    run.metrics["linalg.calib_gmadds"] = p.calib;
    run.metrics["linalg.stage_gmadds.f64.b1"] = p.replay_f64_b1;
    run.metrics["linalg.stage_gmadds.f64.b8"] = p.replay_f64;
    run.metrics["linalg.stage_gmadds.f32.b8"] = p.replay_f32;
    run.metrics["quant.stage_gmacs.i16.b8"] = p.replay_i16;
}

/** tt.gmults.* and the matching kernel fractions. */
void
putSessionRate(Run &run, const char *key, double gmults, double replay)
{
    run.metrics[std::string("tt.gmults.") + key] = gmults;
    run.metrics[std::string("tt.kernel_fraction.") + key] =
        replay > 0 ? gmults / replay : 0;
}

/** Memory of a warmed batch-8 f64 session and its steady-state allocs. */
void
putFootprint(Run &run, e2e::Session<double> &s64)
{
    run.metrics["tt.arena_bytes.b8"] = double(s64.arenaBytes());
    run.metrics["tt.packed_bytes"] = double(s64.packedBytes());
    constexpr int kRuns = 8;
    const uint64_t a0 = g_allocs.load();
    for (int i = 0; i < kRuns; ++i)
        s64.run();
    run.metrics["tt.heap_allocs_per_run"] =
        double(g_allocs.load() - a0) / kRuns;
}

/**
 * Session rates (each for about @p slice seconds) on any workload,
 * and the batch-32 f64 rate beside the batch-1 one: whether a larger
 * batch pays per item.
 */
void
probeSessions(Run &run, const e2e::Model &model, const Pool &pool,
              const Probe &p, double slice)
{
    const e2e::ModelInfo &info = model.info();
    auto gmults = [&](auto &session, size_t batch) {
        return ratePerSecond(slice, [&] { session.run(); }) * batch *
               info.mults_per_item * 1e-9;
    };
    e2e::Session<double> b1(model, 1);
    std::copy_n(pool.item<double>(0), info.in_size, b1.input());
    putSessionRate(run, "f64.b1", gmults(b1, 1), p.replay_f64_b1);

    e2e::Session<double> s64(model, kBatch);
    e2e::Session<float> s32(model, kBatch);
    e2e::Session<int16_t> s16(model, kBatch);
    putSessionRate(run, "f64.b8", gmults(s64, kBatch), p.replay_f64);
    putSessionRate(run, "f32.b8", gmults(s32, kBatch), p.replay_f32);
    putSessionRate(run, "i16.b8", gmults(s16, kBatch), p.replay_i16);
    putFootprint(run, s64);

    e2e::Session<double> b32(model, 32);
    run.metrics["tt.gmults.f64.b32"] = gmults(b32, 32);
}

// ------------------------------------------------------------ workloads

/** Engine observability on, and the benchmark's own span log. */
void
startTracing(Run &run)
{
    e2e::setTracing(true);
    e2e::resetStats();
    run.spans.enable(50000);
}

/** Write the seeded VGG-FC7 artifact; returns its path. */
std::string
makeArtifact(const Run &run)
{
    const std::string path = run.work_dir + "/model.tie";
    e2e::writeModel(run.seed, path);
    return path;
}

/**
 * fc_batch: offline inference of VGG-FC7 at batch 8 through one f64,
 * one f32 and one int16 session in rotation, then batch-1 f64 calls
 * for single-inference latency.
 */
void
fcBatch(Run &run)
{
    const double S = run.seconds;
    const std::string artifact = makeArtifact(run);
    const size_t pool_n = run.quick ? 64 : 256;

    // Sessions view the model's mapping: declared after it, so they
    // are destroyed first.
    struct Sessions
    {
        std::unique_ptr<e2e::Model> model;
        std::unique_ptr<e2e::Session<double>> s64, b1;
        std::unique_ptr<e2e::Session<float>> s32;
        std::unique_ptr<e2e::Session<int16_t>> s16;
    };
    std::optional<Sessions> st;
    std::vector<double> load_ms, warm_ms;
    run.metrics["setup_s"] = medianSetup(run, [&] {
        st.reset();
        st.emplace();
        const int64_t t0 = nowNs();
        st->model = std::make_unique<e2e::Model>(artifact);
        const int64_t t1 = nowNs();
        st->s64 =
            std::make_unique<e2e::Session<double>>(*st->model, kBatch);
        st->s32 =
            std::make_unique<e2e::Session<float>>(*st->model, kBatch);
        st->s16 =
            std::make_unique<e2e::Session<int16_t>>(*st->model, kBatch);
        st->b1 = std::make_unique<e2e::Session<double>>(*st->model, 1);
        const int64_t t2 = nowNs();
        load_ms.push_back(double(t1 - t0) * 1e-6);
        warm_ms.push_back(double(t2 - t1) * 1e-6);
        return double(t2 - t0) * 1e-9;
    });
    const e2e::Model &model = *st->model;
    const e2e::ModelInfo &info = model.info();
    const Pool pool(pool_n, info.in_size, run.seed, true);
    const std::vector<double> o64 = buildOracle<double>(model, pool);
    const std::vector<float> o32 = buildOracle<float>(model, pool);
    const std::vector<int16_t> o16 = buildOracle<int16_t>(model, pool);
    const Mapping map(pool.n, run.seed);
    const size_t in = info.in_size, out = info.out_size;

    // One batch call: gather pool columns, time run(), check columns.
    size_t req = 0;
    auto call = [&](auto &session, const auto &oracle, const char *what,
                    const char *span) -> double {
        using T = std::remove_cv_t<
            std::remove_reference_t<decltype(oracle[0])>>;
        size_t items[kBatch];
        T *x = session.input();
        for (size_t b = 0; b < kBatch; ++b) {
            items[b] = map.at(req++);
            const T *src = pool.template item<T>(items[b]);
            for (size_t r = 0; r < in; ++r)
                x[r * kBatch + b] = src[r];
        }
        const int64_t t0 = nowNs();
        session.run();
        const int64_t t1 = nowNs();
        run.spans.add(span, req / kBatch, -1, t0, t1, 0);
        const T *y = session.output();
        for (size_t b = 0; b < kBatch; ++b) {
            const T *want = oracle.data() + items[b] * out;
            for (size_t r = 0; r < out; ++r)
                if (!sameBits(y[r * kBatch + b], want[r])) {
                    run.check.mismatch(what, items[b]);
                    break;
                }
        }
        return double(t1 - t0) * 1e-9;
    };

    // A job round is one batch call per dtype: the job is split evenly
    // over f64, f32 and int16.
    struct Job
    {
        std::vector<double> t64, t32, t16; ///< seconds per batch call
        double perS(const std::vector<double> &t) const
        {
            return double(kBatch) / median(t);
        }
        /** Inferences/s at the median round. */
        double throughput() const
        {
            return 3.0 * double(kBatch) /
                   (median(t64) + median(t32) + median(t16));
        }
        /** Inferences/s in the quiet windows of rounds. */
        double quietThroughput() const
        {
            std::vector<double> round_us(t64.size());
            for (size_t i = 0; i < t64.size(); ++i)
                round_us[i] = (t64[i] + t32[i] + t16[i]) * 1e6;
            return 3.0 * double(kBatch) * 1e6 /
                   quietWindow(round_us, perWindow(round_us));
        }
        void append(const Job &o)
        {
            t64.insert(t64.end(), o.t64.begin(), o.t64.end());
            t32.insert(t32.end(), o.t32.begin(), o.t32.end());
            t16.insert(t16.end(), o.t16.begin(), o.t16.end());
        }
    };
    auto job = [&](double seconds) {
        Job j;
        const int64_t t0 = nowNs();
        do {
            j.t64.push_back(
                call(*st->s64, o64, "f64 batch", "session.f64.b8"));
            j.t32.push_back(
                call(*st->s32, o32, "f32 batch", "session.f32.b8"));
            j.t16.push_back(
                call(*st->s16, o16, "i16 batch", "session.i16.b8"));
        } while (secondsSince(t0) < seconds);
        run.attempted += 3 * j.t64.size() * kBatch;
        return j;
    };
    auto single = [&](double seconds) {
        std::vector<double> lat;
        lat.reserve(size_t(seconds * 20000) + 16);
        const int64_t t0 = nowNs();
        do {
            const size_t item = map.at(req++);
            std::copy_n(pool.item<double>(item), in, st->b1->input());
            const int64_t a = nowNs();
            st->b1->run();
            const int64_t b = nowNs();
            run.spans.add("session.f64.b1", req, -1, a, b, 1);
            lat.push_back(double(b - a) * 1e-3);
            if (std::memcmp(st->b1->output(), o64.data() + item * out,
                            out * sizeof(double)) != 0)
                run.check.mismatch("f64 single", item);
        } while (secondsSince(t0) < seconds);
        run.attempted += lat.size();
        return lat;
    };

    // Warm-up, untimed: clocks ramp and caches fill at first.
    job(0.04 * S);
    single(0.02 * S);
    if (!run.trace) {
        Job j;
        std::vector<double> lat;
        alternate(0.8 * S, 0.6, [&](double s) { j.append(job(s)); },
                  [&](double s) {
                      const std::vector<double> l = single(s);
                      lat.insert(lat.end(), l.begin(), l.end());
                  });
        run.metrics["throughput_per_s"] = j.quietThroughput();
        run.metrics["latency_p50_us"] = quietWindow(lat, perWindow(lat));
        run.extra("throughput_median_round_per_s", j.throughput(), "1/s");
        run.extra("latency_p50_whole_run_us", percentile(lat, 0.50), "us");
        run.extra("latency_p99_us", percentile(lat, 0.99), "us");
        run.extra("latency_samples", double(lat.size()), "count");
        run.extra("f64_infer_per_s", j.perS(j.t64), "1/s");
        run.extra("f32_infer_per_s", j.perS(j.t32), "1/s");
        run.extra("i16_infer_per_s", j.perS(j.t16), "1/s");
        return;
    }

    run.metrics["io.load_ms"] = median(load_ms);
    run.metrics["setup.warm_ms"] = median(warm_ms);
    const Job plain = job(0.2 * S);
    startTracing(run);
    const Job traced = job(0.2 * S);
    const std::vector<double> lat = single(0.1 * S);
    const Probe p = probeKernels(run, info, 0.04 * S);
    putProbe(run, p);
    const double mpi = info.mults_per_item * 1e-9;
    putSessionRate(run, "f64.b8", traced.perS(traced.t64) * mpi,
                   p.replay_f64);
    putSessionRate(run, "f32.b8", traced.perS(traced.t32) * mpi,
                   p.replay_f32);
    putSessionRate(run, "i16.b8", traced.perS(traced.t16) * mpi,
                   p.replay_i16);
    putSessionRate(run, "f64.b1", mpi / (median(lat) * 1e-6),
                   p.replay_f64_b1);
    putFootprint(run, *st->s64);
    {
        e2e::Session<double> b32(model, 32);
        run.metrics["tt.gmults.f64.b32"] =
            ratePerSecond(0.05 * S, [&] { b32.run(); }) * 32 * mpi;
    }
    run.metrics["obs.overhead_pct"] =
        (plain.throughput() / traced.throughput() - 1.0) * 100.0;
}

/**
 * serve.* from a traced phase @p ph; the per-request costs come from
 * the untraced phase @p counted, so the tracing layer's own work (its
 * drain thread allocates) is not charged to the server.
 */
void
putServeLayers(Run &run, const Phase &ph, const Phase &counted)
{
    const double n = double(std::max<uint64_t>(counted.sent, 1));
    run.metrics["serve.submit_us.p50"] = percentile(ph.submit_us, 0.50);
    run.metrics["serve.submit_us.p99"] = percentile(ph.submit_us, 0.99);
    run.metrics["serve.queue_wait_us.p50"] = percentile(ph.queue_us, 0.50);
    run.metrics["serve.queue_wait_us.p99"] = percentile(ph.queue_us, 0.99);
    run.metrics["serve.service_us.p50"] = percentile(ph.service_us, 0.50);
    run.metrics["serve.service_us.p99"] = percentile(ph.service_us, 0.99);
    run.metrics["serve.notify_us.p50"] = percentile(ph.notify_us, 0.50);
    run.metrics["serve.batch_size.mean"] = e2e::servedBatchSizeMean();
    run.metrics["serve.cpu_us_per_request"] = counted.usage.cpu_us / n;
    run.metrics["serve.ctx_switches_per_request"] = counted.usage.ctx / n;
    run.metrics["serve.heap_allocs_per_request"] =
        double(counted.usage.allocs) / n;
    run.metrics["serve.rejected"] = double(ph.refused);
    run.metrics["serve.timed_out"] = double(ph.timed_out);
}

/**
 * Open-loop rate of fc_serve's latency phase: a batch-1 FC7 call takes
 * about 0.5 ms on one core, so the server is busy a quarter of the time.
 */
constexpr double kServeRps = 500;

/**
 * fc_serve: VGG-FC7 behind one in-process Server (max_batch 8, 200 us
 * window). Latency comes from an open loop at 500 rps, throughput from
 * a closed loop that submits one full batch (8 requests) at a time.
 */
void
fcServe(Run &run)
{
    const double S = run.seconds;
    const std::string artifact = makeArtifact(run);
    const e2e::ServePolicy policy{8, 200, 256};
    // Hold back just before the queue bound would refuse a request.
    const size_t backlog = policy.queue_capacity - 16;

    std::unique_ptr<e2e::Model> model;
    std::unique_ptr<e2e::InprocServer> server;
    std::vector<double> load_ms, warm_ms;
    run.metrics["setup_s"] = medianSetup(run, [&] {
        server.reset();
        model.reset();
        const int64_t t0 = nowNs();
        model = std::make_unique<e2e::Model>(artifact);
        const int64_t t1 = nowNs();
        server = std::make_unique<e2e::InprocServer>(*model, policy);
        const int64_t t2 = nowNs();
        load_ms.push_back(double(t1 - t0) * 1e-6);
        warm_ms.push_back(double(t2 - t1) * 1e-6);
        return double(t2 - t0) * 1e-9;
    });
    const e2e::ModelInfo &info = model->info();
    const Pool pool(256, info.in_size, run.seed, run.trace);
    const std::vector<double> oracle = buildOracle<double>(*model, pool);
    const Mapping map(pool.n, run.seed);
    const ServeSetup ss{pool, oracle, map, info.out_size};

    size_t req = 0;
    auto open = [&](double seconds) {
        Phase ph =
            openLoop(run, *server, ss, kServeRps, seconds, req, backlog);
        req += ph.sent;
        countPhase(run, ph);
        return ph;
    };
    auto full = [&](double seconds) {
        Phase ph =
            closedLoop(run, *server, ss, policy.max_batch, seconds, req);
        req += ph.sent;
        countPhase(run, ph);
        return ph;
    };

    open(0.03 * S); // warm-up, not reported
    full(0.02 * S);
    if (!run.trace) {
        Phase nom, sat;
        alternate(0.85 * S, 0.55, [&](double s) { nom.append(open(s)); },
                  [&](double s) { sat.append(full(s)); });
        run.metrics["throughput_per_s"] = sat.quietRate();
        run.metrics["latency_p50_us"] = nom.quietP50();
        run.extra("latency_p50_whole_run_us", nom.p50(), "us");
        run.extra("latency_p99_us", nom.p99(), "us");
        run.extra("latency_samples", double(nom.latency_us.size()),
                  "count");
        run.extra("loadgen.send_lag_us.p99", percentile(nom.lag_us, 0.99),
                  "us");
        run.extra("open_loop.unsent", double(nom.unsent), "count");
        run.extra("bursts", double(sat.burst_us.size()), "count");
        return;
    }

    run.metrics["io.load_ms"] = median(load_ms);
    run.metrics["setup.warm_ms"] = median(warm_ms);
    const Phase plain = open(0.25 * S);
    startTracing(run);
    const Phase traced = open(0.25 * S);
    putServeLayers(run, traced, plain);
    run.metrics["loadgen.send_lag_us.p99"] =
        percentile(traced.lag_us, 0.99);
    run.metrics["obs.overhead_pct"] =
        (traced.p50() / plain.p50() - 1.0) * 100.0;
    full(0.1 * S); // spans of full batches, for the trace
    server.reset();
    const Probe p = probeKernels(run, info, 0.02 * S);
    putProbe(run, p);
    probeSessions(run, *model, pool, p, 0.02 * S);
}

/**
 * fc_cluster: VGG-FC7 through a Router over two tie_worker processes
 * (batch 1, no window). Latency comes from a lone client, throughput
 * from bursts of four requests (two per replica). The traced run adds
 * an in-process server with the same policy.
 */
void
fcCluster(Run &run)
{
    const double S = run.seconds;
    const std::string artifact = makeArtifact(run);
    const e2e::ServePolicy policy{1, 0, 256};
    constexpr size_t kReplicas = 2, kBurst = 4;

    std::unique_ptr<e2e::Cluster> cluster;
    std::vector<double> spawn_ms, router_ms;
    run.metrics["setup_s"] = medianSetup(run, [&] {
        cluster.reset();
        const int64_t t0 = nowNs();
        cluster = std::make_unique<e2e::Cluster>(artifact, kReplicas,
                                                 policy, run.work_dir);
        spawn_ms.push_back(cluster->spawnMs());
        router_ms.push_back(cluster->routerStartMs());
        return secondsSince(t0);
    });

    const int64_t t_load = nowNs();
    const e2e::Model model(artifact);
    run.metrics["io.load_ms"] = double(nowNs() - t_load) * 1e-6;
    const e2e::ModelInfo &info = model.info();
    const Pool pool(256, info.in_size, run.seed, run.trace);
    const std::vector<double> oracle = buildOracle<double>(model, pool);
    const Mapping map(pool.n, run.seed);
    const ServeSetup ss{pool, oracle, map, info.out_size};

    size_t req = 0;
    auto loop = [&](e2e::Target &target, size_t burst, double seconds) {
        Phase ph = closedLoop(run, target, ss, burst, seconds, req);
        req += ph.sent;
        countPhase(run, ph);
        return ph;
    };
    auto clustered = [&](size_t burst, double seconds) {
        const std::vector<pid_t> pids = cluster->workerPids();
        double cpu0 = 0, ctx0 = 0;
        for (pid_t p : pids) {
            cpu0 += procCpuUs(p);
            ctx0 += procCtx(p);
        }
        Phase ph = loop(*cluster, burst, seconds);
        for (pid_t p : pids) {
            ph.peer_cpu_us += procCpuUs(p);
            ph.peer_ctx += procCtx(p);
        }
        ph.peer_cpu_us -= cpu0;
        ph.peer_ctx -= ctx0;
        return ph;
    };
    auto finish = [&] {
        const e2e::ClusterCounters c = cluster->counters();
        run.metrics["cluster.redispatched"] = double(c.redispatched);
        run.metrics["cluster.shed"] = double(c.shed);
        run.metrics["cluster.worker_deaths"] = double(c.worker_deaths);
        run.check.lost += c.worker_deaths; // a crash voids the run
        for (pid_t p : cluster->workerPids())
            run.metrics["rss_peak_mib"] += peakRssMiB(std::to_string(p));
        cluster.reset();
    };

    clustered(1, 0.03 * S); // warm-up, not reported
    clustered(kBurst, 0.02 * S);
    if (!run.trace) {
        Phase lone, burst;
        alternate(0.85 * S, 0.55,
                  [&](double s) { lone.append(clustered(1, s)); },
                  [&](double s) { burst.append(clustered(kBurst, s)); });
        run.metrics["throughput_per_s"] = burst.quietRate();
        run.metrics["latency_p50_us"] = lone.quietP50();
        run.extra("latency_p50_whole_run_us", lone.p50(), "us");
        run.extra("latency_p99_us", lone.p99(), "us");
        run.extra("latency_samples", double(lone.latency_us.size()),
                  "count");
        run.extra("bursts", double(burst.burst_us.size()), "count");
        finish();
        return;
    }

    run.metrics["setup.spawn_ms"] = median(spawn_ms);
    run.metrics["setup.router_start_ms"] = median(router_ms);
    auto inproc = [&](double seconds) {
        e2e::InprocServer server(model, policy);
        loop(server, 1, 0.02 * S);
        return loop(server, 1, seconds);
    };
    const Phase plain_in = inproc(0.12 * S);
    const Phase plain = clustered(1, 0.2 * S);
    startTracing(run);
    const Phase in = inproc(0.12 * S);
    const Phase cl = clustered(1, 0.2 * S);
    putServeLayers(run, in, plain_in);
    const double n = double(std::max<uint64_t>(plain.sent, 1));
    run.metrics["cluster.inproc_p50_us"] = in.p50();
    run.metrics["cluster.overhead_p50_us"] = cl.p50() - in.p50();
    run.metrics["cluster.submit_us.p50"] = percentile(cl.submit_us, 0.5);
    run.metrics["cluster.submit_us.p99"] = percentile(cl.submit_us, 0.99);
    run.metrics["cluster.router_cpu_us_per_request"] =
        plain.usage.cpu_us / n;
    run.metrics["cluster.worker_cpu_us_per_request"] = plain.peer_cpu_us / n;
    run.metrics["cluster.ctx_switches_per_request"] =
        (plain.usage.ctx + plain.peer_ctx) / n;
    run.metrics["cluster.router_heap_allocs_per_request"] =
        double(plain.usage.allocs) / n;
    run.metrics["obs.overhead_pct"] = (cl.p50() / plain.p50() - 1.0) * 100.0;
    finish();
    const Probe p = probeKernels(run, info, 0.02 * S);
    putProbe(run, p);
    probeSessions(run, model, pool, p, 0.02 * S);
}

// -------------------------------------------------------------- output

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o + "\"";
}

using Provenance = std::vector<std::pair<std::string, std::string>>;

Provenance
provenance(const Run &run)
{
    return {
        {"git_sha", run.git_sha},
#ifdef __clang__
        {"compiler", __VERSION__},
#else
        {"compiler", "gcc " __VERSION__},
#endif
        {"build_type", TIE_E2E_BUILD_TYPE},
        {"isa", e2e::isaName()},
        {"pool_threads", std::to_string(e2e::poolThreads())},
        {"cpu", std::to_string(run.cpu)},
        {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
        {"seed", std::to_string(run.seed)},
        {"seconds", jsonNumber(run.seconds)},
        {"trace", run.trace ? "1" : "0"},
    };
}

std::string
metricsJson(const Run &run, const MetricDef *defs, size_t n)
{
    std::string o = "{";
    for (size_t i = 0; i < n; ++i) {
        const auto it = run.metrics.find(defs[i].name);
        const double v = it == run.metrics.end() ? 0.0 : it->second;
        if (i)
            o += ", ";
        o += jsonString(defs[i].name) + ": {\"value\": " + jsonNumber(v) +
             ", \"unit\": " + jsonString(defs[i].unit) + "}";
    }
    return o + "}";
}

std::string
provenanceJson(const Provenance &p)
{
    std::string o = "{";
    for (size_t i = 0; i < p.size(); ++i)
        o += (i ? ", " : "") + jsonString(p[i].first) + ": " +
             jsonString(p[i].second);
    return o + "}";
}

void
writeFile(const std::string &path, const std::string &body)
{
    std::ofstream f(path);
    f << body << "\n";
    if (!f)
        throw std::runtime_error("cannot write " + path);
}

/** Chrome trace of the benchmark's spans, one track per span track. */
std::string
chromeTrace(const SpanLog &log)
{
    std::string o = "{\"traceEvents\": [";
    for (size_t i = 0; i < log.size(); ++i) {
        const SpanLog::Span &s = log.at(i);
        o += i ? ",\n" : "\n";
        o += "{\"name\": " + jsonString(s.name) +
             ", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
             std::to_string(s.track) +
             ", \"ts\": " + jsonNumber(double(s.t0_ns) * 1e-3) +
             ", \"dur\": " + jsonNumber(double(s.t1_ns - s.t0_ns) * 1e-3) +
             ", \"args\": {\"request\": " + std::to_string(s.id) +
             ", \"parent\": " + std::to_string(s.parent) + "}}";
    }
    return o + "\n], \"displayTimeUnit\": \"ms\"}";
}

/** Per span name: count, total and self time (minus child spans). */
std::string
spanSummary(const SpanLog &log)
{
    struct Agg
    {
        uint64_t count = 0;
        double total_us = 0, self_us = 0;
    };
    std::map<std::string, Agg> by;
    std::vector<double> child_us(log.size(), 0.0);
    for (size_t i = 0; i < log.size(); ++i) {
        const SpanLog::Span &s = log.at(i);
        if (s.parent >= 0)
            child_us[size_t(s.parent)] += double(s.t1_ns - s.t0_ns) * 1e-3;
    }
    for (size_t i = 0; i < log.size(); ++i) {
        const SpanLog::Span &s = log.at(i);
        Agg &a = by[s.name];
        const double d = double(s.t1_ns - s.t0_ns) * 1e-3;
        ++a.count;
        a.total_us += d;
        a.self_us += std::max(0.0, d - child_us[i]);
    }
    std::string o = "{";
    bool first = true;
    for (const auto &[name, a] : by) {
        o += (first ? "" : ", ") + jsonString(name) +
             ": {\"count\": " + std::to_string(a.count) +
             ", \"total_us\": " + jsonNumber(a.total_us) +
             ", \"self_us\": " + jsonNumber(a.self_us) + "}";
        first = false;
    }
    return o + "}";
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fc_batch|fc_serve|fc_cluster\n"
                 "          [--seed S] [--seconds T] [--trace 0|1] "
                 "[--quick]\n"
                 "          [--out DIR] [--work DIR] [--git-sha SHA]\n",
                 argv0);
    return 2;
}

/** Reasons this build or environment would measure another program. */
std::string
refusal()
{
#ifndef NDEBUG
    return "assertions are enabled: build with CMAKE_BUILD_TYPE=Release";
#endif
    if (std::string(TIE_E2E_BUILD_TYPE) != "Release")
        return std::string("build type is ") + TIE_E2E_BUILD_TYPE +
               ", not Release";
    for (const char *v : {"TIE_SIMD", "TIE_THREADS", "TIE_FAST", "TIE_FUSE"})
        if (std::getenv(v) != nullptr)
            return std::string(v) +
                   " is set; it selects a different program";
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    Run run;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload")
                run.workload = val();
            else if (a == "--seed")
                run.seed = std::stoull(val());
            else if (a == "--seconds")
                run.seconds = std::stod(val());
            else if (a == "--trace")
                run.trace = std::stoi(val()) != 0;
            else if (a == "--quick")
                run.quick = true;
            else if (a == "--out")
                run.out_dir = val();
            else if (a == "--work")
                run.work_dir = val();
            else if (a == "--git-sha")
                run.git_sha = val();
            else
                return usage(argv[0]);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "bad argument %s: %s\n", a.c_str(),
                         e.what());
            return 2;
        }
    }
    if (run.quick)
        run.seconds = std::min(run.seconds, 1.0);
    const std::map<std::string, std::function<void(Run &)>> workloads = {
        {"fc_batch", fcBatch},
        {"fc_serve", fcServe},
        {"fc_cluster", fcCluster},
    };
    const auto workload = workloads.find(run.workload);
    if (workload == workloads.end() || run.seconds <= 0)
        return usage(argv[0]);
    const std::string refuse = refusal();
    if (!refuse.empty()) {
        std::fprintf(stderr, "tie_e2e: refusing to run: %s\n",
                     refuse.c_str());
        return 2;
    }
    if (run.work_dir.empty())
        run.work_dir = ".bench_build/work-" + std::to_string(::getpid());

    try {
        // One CPU and one engine thread, here and in every tie_worker
        // (they inherit the affinity and the environment).
        run.cpu = pinToOneCpu();
        ::setenv("TIE_THREADS", "1", 1);
        e2e::setPoolThreads(1);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tie_e2e: %s\n", e.what());
        return 1;
    }

    const Provenance prov = provenance(run);
    for (const auto &[k, v] : prov)
        std::printf("# %s %s\n", k.c_str(), v.c_str());
    std::fflush(stdout);

    try {
        std::filesystem::create_directories(run.work_dir);
        const int64_t t0 = nowNs();
        workload->second(run);
        e2e::setTracing(false);
        run.metrics["rss_peak_mib"] += peakRssMiB("self");
        run.metrics["flight.dropped"] = double(e2e::flightDropped());
        run.extra("wall_s", secondsSince(t0), "s");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tie_e2e: %s\n", e.what());
        std::filesystem::remove_all(run.work_dir);
        return 1;
    }
    std::filesystem::remove_all(run.work_dir);

    if (!run.check.ok()) {
        std::fprintf(stderr,
                     "tie_e2e: %s: %llu mismatched, %llu lost. %s\n",
                     run.workload.c_str(),
                     (unsigned long long)run.check.mismatched.load(),
                     (unsigned long long)run.check.lost.load(),
                     run.check.first.c_str());
        return 1;
    }
    if (run.trace && run.metrics["flight.dropped"] > 0) {
        std::fprintf(stderr, "tie_e2e: trace invalid: %.0f flight events "
                             "dropped\n",
                     run.metrics["flight.dropped"]);
        return 1;
    }

    const MetricDef *defs = run.trace ? kLayers : kEndToEnd;
    const size_t ndefs = run.trace ? std::size(kLayers) : std::size(kEndToEnd);
    for (size_t i = 0; i < ndefs; ++i)
        std::printf("%s %s %.9g %s\n", run.workload.c_str(), defs[i].name,
                    run.metrics[defs[i].name], defs[i].unit);
    for (const Extra &x : run.extras)
        std::printf("%s %s %.9g %s\n", run.workload.c_str(),
                    x.name.c_str(), x.value, x.unit.c_str());

    const std::string base = run.out_dir + "/BENCH_e2e." + run.workload;
    std::string extras = "{";
    for (size_t i = 0; i < run.extras.size(); ++i)
        extras += (i ? ", " : "") + jsonString(run.extras[i].name) + ": " +
                  jsonNumber(run.extras[i].value);
    extras += "}";
    const std::string body =
        "{\"workload\": " + jsonString(run.workload) +
        ", \"provenance\": " + provenanceJson(prov) +
        ", \"metrics\": " + metricsJson(run, defs, ndefs) +
        ", \"extras\": " + extras;
    try {
        if (!run.trace) {
            writeFile(base + ".json", body + "}");
        } else {
            writeFile(base + ".layers.json",
                      body + ", \"spans\": " + spanSummary(run.spans) +
                          ", \"spans_skipped\": " +
                          std::to_string(run.spans.skipped()) +
                          ", \"engine_stats\": " + e2e::statsJson() + "}");
            writeFile(base + ".trace.json", chromeTrace(run.spans));
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tie_e2e: %s\n", e.what());
        return 1;
    }

    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                (unsigned long long)std::max<uint64_t>(run.attempted, 1),
                (unsigned long long)run.failed,
                metricsJson(run, defs, ndefs).c_str());
    return 0;
}
