/**
 * @file
 * Process-wide thread pool and chunked parallel-for.
 *
 * Design constraints (see docs/performance.md):
 *  - Determinism: parallelFor only distributes *disjoint* index ranges;
 *    every kernel built on it assigns each output element to exactly one
 *    chunk and keeps the per-element reduction order identical to the
 *    serial loop, so results are bit-identical for any thread count.
 *  - Thread count comes from the TIE_THREADS environment variable at
 *    first use (default: hardware_concurrency), and can be changed at
 *    runtime with setThreadCount(). A count of 1 runs every body inline
 *    on the calling thread — the exact serial fallback.
 *  - Nested parallelFor calls (a body that itself calls a parallel
 *    kernel) execute inline serially; only the outermost level fans out.
 */

#ifndef TIE_COMMON_THREAD_POOL_HH
#define TIE_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace tie {

/**
 * Non-owning reference to a callable(size_t lo, size_t hi).
 *
 * parallelFor blocks until the whole loop has run, so the referenced
 * callable always outlives the job; unlike std::function, binding one
 * never heap-allocates — a requirement of the zero-allocation
 * steady-state inference path (tt/infer_session.hh).
 */
class LoopBody
{
  public:
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, LoopBody>>>
    LoopBody(F &&f)
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          call_([](void *o, size_t lo, size_t hi) {
              (*static_cast<std::remove_reference_t<F> *>(o))(lo, hi);
          })
    {}

    void operator()(size_t lo, size_t hi) const { call_(obj_, lo, hi); }

  private:
    void *obj_;
    void (*call_)(void *, size_t, size_t);
};

/**
 * A persistent pool of worker threads executing one chunked loop at a
 * time. Use the free functions parallelFor / threadCount /
 * setThreadCount below; the class is exposed for lifetime control in
 * tests.
 */
class ThreadPool
{
  public:
    /** The process-wide pool (constructed on first use). */
    static ThreadPool &instance();

    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total threads used by parallelFor (workers + calling thread). */
    size_t threadCount() const { return n_threads_; }

    /**
     * Resize the pool to @p n total threads (min 1). Must not be called
     * concurrently with a running parallelFor.
     */
    void setThreadCount(size_t n);

    /**
     * Run body(lo, hi) over disjoint chunks covering [begin, end).
     * Chunks are at most @p grain indices wide (grain 0 picks a size
     * aiming at ~4 chunks per thread). Chunk *boundaries* depend only on
     * (begin, end, grain), never on the thread count, and each index is
     * covered exactly once. Blocks until every chunk has run; the first
     * exception thrown by a body is rethrown on the calling thread.
     */
    void parallelFor(size_t begin, size_t end, size_t grain,
                     LoopBody body);

  private:
    explicit ThreadPool(size_t n_threads);

    void startWorkers(size_t n_workers);
    void stopWorkers();
    void workerLoop(uint64_t seen);
    void runChunks();

    size_t n_threads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex submit_mu_; ///< serialises whole jobs
    std::mutex mu_;        ///< guards job state and worker wakeup
    std::condition_variable job_cv_;  ///< wakes workers for a new job
    std::condition_variable done_cv_; ///< wakes the caller when drained
    bool stop_ = false;
    uint64_t job_generation_ = 0;
    size_t workers_done_ = 0;

    // Current job (valid while a parallelFor is in flight).
    size_t job_begin_ = 0;
    size_t job_end_ = 0;
    size_t job_grain_ = 1;
    size_t job_nchunks_ = 0;
    std::atomic<size_t> next_chunk_{0};
    const LoopBody *job_body_ = nullptr;
    std::exception_ptr job_error_;
};

/**
 * Resolve the pool size from a TIE_THREADS value and the reported
 * hardware concurrency: a valid TIE_THREADS (integer >= 1) wins; a
 * malformed or out-of-range value is a user error (fatal); with the
 * variable unset the hardware count is used, falling back to 1 worker
 * when the implementation reports 0 (hardware_concurrency is allowed
 * to). Exposed separately from the pool singleton so tests can cover
 * the env parsing without constructing threads.
 */
size_t resolveThreadCount(const char *env_value, unsigned hardware);

/** Threads the global pool will use (TIE_THREADS / hardware). */
size_t threadCount();

/** Resize the global pool; 1 means fully serial execution. */
void setThreadCount(size_t n);

/** Chunked parallel loop on the global pool (see ThreadPool). */
void parallelFor(size_t begin, size_t end, size_t grain, LoopBody body);

} // namespace tie

#endif // TIE_COMMON_THREAD_POOL_HH
