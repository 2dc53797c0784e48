#include "common/thread_pool.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"

namespace tie {

namespace {

/** Pool stats; references are cached so updates never lock the registry. */
struct PoolStats
{
    obs::Counter &jobs;
    obs::Counter &chunks;
    obs::Counter &serial_jobs;
    obs::Distribution &chunk_us;

    static PoolStats &
    get()
    {
        static PoolStats s{
            obs::StatRegistry::instance().counter(
                "pool.jobs", "parallelFor jobs fanned out"),
            obs::StatRegistry::instance().counter(
                "pool.chunks", "chunks executed across all jobs"),
            obs::StatRegistry::instance().counter(
                "pool.serial_jobs",
                "parallelFor calls taking the inline serial path"),
            obs::StatRegistry::instance().distribution(
                "pool.chunk_us", "wall-clock microseconds per chunk"),
        };
        return s;
    }
};

} // namespace

namespace {

/**
 * True while the current thread is executing inside a parallelFor body
 * (worker threads permanently, the caller for the job's duration);
 * nested parallelFor calls from such a thread run inline serially.
 */
thread_local bool t_in_parallel_region = false;

size_t
defaultThreadCount()
{
    return resolveThreadCount(std::getenv("TIE_THREADS"),
                              std::thread::hardware_concurrency());
}

} // namespace

size_t
resolveThreadCount(const char *env_value, unsigned hardware)
{
    if (env_value != nullptr) {
        char *end = nullptr;
        const long v = std::strtol(env_value, &end, 10);
        TIE_CHECK_ARG(end != env_value && *end == '\0' && v >= 1,
                      "TIE_THREADS='", env_value,
                      "' is not an integer >= 1");
        return static_cast<size_t>(v);
    }
    return hardware > 0 ? hardware : 1;
}

ThreadPool &
ThreadPool::instance()
{
    static ThreadPool pool(defaultThreadCount());
    return pool;
}

ThreadPool::ThreadPool(size_t n_threads)
{
    n_threads_ = std::max<size_t>(1, n_threads);
    startWorkers(n_threads_ - 1);
}

ThreadPool::~ThreadPool()
{
    stopWorkers();
}

void
ThreadPool::setThreadCount(size_t n)
{
    n = std::max<size_t>(1, n);
    if (n == n_threads_)
        return;
    stopWorkers();
    n_threads_ = n;
    startWorkers(n - 1);
}

void
ThreadPool::startWorkers(size_t n_workers)
{
    stop_ = false;
    // A new worker must wait for the *next* job: starting it at
    // generation 0 would replay the last finished job, count it done
    // twice and let a later parallelFor return (or hang) while a chunk
    // still runs.
    const uint64_t seen = job_generation_;
    workers_.reserve(n_workers);
    for (size_t i = 0; i < n_workers; ++i)
        workers_.emplace_back([this, seen] { workerLoop(seen); });
}

void
ThreadPool::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    job_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
    workers_.clear();
}

void
ThreadPool::workerLoop(uint64_t seen)
{
    t_in_parallel_region = true;
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            job_cv_.wait(lk, [&] {
                return stop_ || job_generation_ != seen;
            });
            if (stop_)
                return;
            seen = job_generation_;
        }
        runChunks();
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++workers_done_;
        }
        done_cv_.notify_one();
    }
}

void
ThreadPool::runChunks()
{
    for (;;) {
        const size_t c = next_chunk_.fetch_add(1,
                                               std::memory_order_relaxed);
        if (c >= job_nchunks_)
            return;
        const size_t lo = job_begin_ + c * job_grain_;
        const size_t hi = std::min(job_end_, lo + job_grain_);
        try {
            if (obs::enabled()) {
                PoolStats &ps = PoolStats::get();
                ps.chunks.add();
                obs::ScopedTimer timer(ps.chunk_us);
                obs::HostSpan span("pool.chunk");
                (*job_body_)(lo, hi);
            } else {
                (*job_body_)(lo, hi);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu_);
            if (!job_error_)
                job_error_ = std::current_exception();
        }
    }
}

void
ThreadPool::parallelFor(size_t begin, size_t end, size_t grain,
                        LoopBody body)
{
    if (end <= begin)
        return;
    const size_t n = end - begin;
    if (grain == 0)
        grain = std::max<size_t>(1, n / (4 * n_threads_));

    // Serial fast path: single-thread pool, nested call, or a range
    // that fits in one chunk anyway.
    if (n_threads_ == 1 || t_in_parallel_region || n <= grain) {
        if (obs::enabled())
            PoolStats::get().serial_jobs.add();
        body(begin, end);
        return;
    }

    if (obs::enabled())
        PoolStats::get().jobs.add();
    obs::HostSpan job_span("pool.job");

    // One job at a time: concurrent parallelFor calls from distinct
    // user threads queue here instead of clobbering the job state.
    std::lock_guard<std::mutex> submit(submit_mu_);
    {
        std::lock_guard<std::mutex> lk(mu_);
        job_begin_ = begin;
        job_end_ = end;
        job_grain_ = grain;
        job_nchunks_ = (n + grain - 1) / grain;
        next_chunk_.store(0, std::memory_order_relaxed);
        workers_done_ = 0;
        job_body_ = &body;
        job_error_ = nullptr;
        ++job_generation_;
    }
    job_cv_.notify_all();

    // The caller is one of the n_threads_ execution threads.
    t_in_parallel_region = true;
    runChunks();
    t_in_parallel_region = false;

    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lk(mu_);
        done_cv_.wait(lk, [&] {
            return workers_done_ == workers_.size();
        });
        job_body_ = nullptr;
        err = job_error_;
        job_error_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

size_t
threadCount()
{
    return ThreadPool::instance().threadCount();
}

void
setThreadCount(size_t n)
{
    ThreadPool::instance().setThreadCount(n);
}

void
parallelFor(size_t begin, size_t end, size_t grain, LoopBody body)
{
    ThreadPool::instance().parallelFor(begin, end, grain, body);
}

} // namespace tie
