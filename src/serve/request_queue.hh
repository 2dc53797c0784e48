/**
 * @file
 * Bounded, pre-allocated request queue with admission control,
 * enqueue deadlines and dynamic-batch dequeue.
 *
 * All request storage lives in a slot slab sized at construction:
 * each slot owns a pre-sized input vector (N elements) and output
 * vector (M elements), so the steady-state submit -> dequeue ->
 * complete -> collect cycle performs **zero heap allocations** —
 * slots are recycled through a free list and the FIFO is a fixed
 * ring of slot ids. tests/test_serve.cc asserts this with the same
 * global operator-new hook used for InferSession.
 *
 * Concurrency: one mutex guards all queue state; work_cv_ wakes
 * batchers (dequeueBatch), done_cv_ wakes collectors (wait). Slot
 * payload (input/output data) is written lock-free by exactly one
 * side at a time — the submitter before publishing Pending, the
 * thread that runs the batch while Running (a dequeuing batcher, or a
 * caller-runs submitter until it completes the request) — and every
 * handover happens through a status change under the mutex, which
 * provides the happens-before edge for the payload bytes.
 *
 * Runners: a queue built with n runners tracks one state per batcher
 * (dequeueBatch's runner index). A runner is busy from the dequeue of
 * a batch to its completeBatch, lent while a caller-runs submit runs
 * a request on it, and idle otherwise. Only an idle queue (nothing
 * queued, every runner idle) lends a runner, and a lent runner's
 * batcher dequeues nothing until completeBatch returns it. So the
 * runner's resources (the Server's session chain) have exactly one
 * user at a time, handed over under the mutex like the payloads.
 */

#ifndef TIE_SERVE_REQUEST_QUEUE_HH
#define TIE_SERVE_REQUEST_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/request.hh"

namespace tie {
namespace serve {

class RequestQueue
{
  public:
    using Clock = std::chrono::steady_clock;

    /** No runner: the plain queue path (trySubmit, dequeueBatch). */
    static constexpr size_t kNoRunner = SIZE_MAX;

    /**
     * @param n_slots   total request slots (queue capacity plus the
     *                  requests that may be Running or Done-awaiting-
     *                  collection at once; the Server sizes this as
     *                  capacity + workers * max_batch + in-flight
     *                  collector margin)
     * @param capacity  admission bound on *queued* (Pending) requests
     * @param in_elems  input vector length N (pre-sized per slot)
     * @param out_elems output vector length M (pre-sized per slot)
     * @param runners   batchers that identify themselves to
     *                  dequeueBatch and may be lent to caller-runs
     *                  submits (see Runners above)
     */
    RequestQueue(size_t n_slots, size_t capacity, size_t in_elems,
                 size_t out_elems, size_t runners = 0);

    RequestQueue(const RequestQueue &) = delete;
    RequestQueue &operator=(const RequestQueue &) = delete;

    /**
     * Admission-controlled submit: copies @p x (in_elems values) into
     * a free slot and enqueues it. Returns an invalid ticket — the
     * Rejected outcome — when the queue holds @p capacity pending
     * requests, no free slot remains, or the queue is stopped.
     * @p deadline_us > 0 arms an enqueue deadline: a batcher that
     * finds the request still queued after that many microseconds
     * drops it as TimedOut instead of running it.
     *
     * Caller-runs: with a non-null @p runner, a request admitted
     * while the queue is idle (nothing queued, no runner busy or
     * lent) skips the queue instead. It is admitted straight to Running with a zero
     * queue wait, the runner is lent to the caller (*runner = its
     * index), and the caller runs the request and publishes it with
     * completeBatch(&id, 1, service_us, *runner), which returns the
     * runner. Otherwise *runner = kNoRunner and the request is queued
     * or rejected as above. Either way it takes the mutex once.
     */
    Ticket trySubmit(const double *x, uint64_t deadline_us = 0,
                     size_t *runner = nullptr);

    /**
     * Block until the request reaches a terminal state, then release
     * its slot. For Done requests the output (out_elems values) is
     * copied into @p out (resized; reusing the same vector across
     * calls keeps steady-state collection allocation-free) and
     * @p timing receives the server-side latency split. Invalid
     * tickets return Rejected immediately. Each ticket may be waited
     * exactly once; a second wait on the same ticket is a fatal
     * usage error (the generation counter catches it). A nonzero
     * @p timeout_us bounds the wait: a request not terminal by then
     * returns its current status (Pending or Running) and stays
     * uncollected, to be waited again.
     */
    RequestStatus wait(Ticket t, std::vector<double> *out = nullptr,
                       RequestTiming *timing = nullptr,
                       uint64_t timeout_us = 0);

    /**
     * Dynamic batcher dequeue: blocks until work is available, then
     * returns up to @p max_batch request ids in @p ids (caller array
     * of at least max_batch). If fewer than max_batch requests are
     * queued and @p timeout_us > 0, waits for the batch to fill until
     * the *oldest* queued request is timeout_us old — so batching
     * adds at most timeout_us to any request's queue wait. Requests
     * whose enqueue deadline has expired are marked TimedOut and
     * skipped. Returns 0 only when the queue is stopped AND drained;
     * after stop() remaining requests are still handed out so workers
     * drain the backlog. @p runner (< runners, or kNoRunner) names
     * the calling batcher: a batch it returns makes the runner busy
     * until completeBatch, and while the runner is lent it takes no
     * batch and does not return 0.
     */
    size_t dequeueBatch(size_t max_batch, uint64_t timeout_us,
                        uint32_t *ids, size_t runner = kNoRunner);

    /**
     * Input / output payload of a Running slot. Only the thread that
     * dequeued or admitted the id may touch these, and only until it
     * calls completeBatch.
     */
    const std::vector<double> &input(uint32_t id) const;
    std::vector<double> &output(uint32_t id);

    /**
     * Flight-recorder identity of a dequeued (Running) slot: the
     * trace id assigned at admission (0 when the recorder was off at
     * submit time) and the admission timestamp in the hostNowUs
     * domain. Same ownership contract as input()/output().
     */
    uint64_t traceId(uint32_t id) const;
    uint64_t enqueueUs(uint32_t id) const;

    /**
     * Publish a finished batch: every id becomes Done with the given
     * per-batch service time and its waiting collector is woken.
     * @p runner is the runner that ran the batch — the batcher's
     * own, or the one trySubmit lent for a caller-runs request — and
     * is idle again from here on.
     */
    void completeBatch(const uint32_t *ids, size_t n,
                       double service_us, size_t runner = kNoRunner);

    /**
     * Stop admitting; wakes every batcher and collector. Requests
     * already queued remain dequeuable (drain-on-shutdown).
     */
    void stop();

    bool stopped() const;

    /** Pending (queued, not yet dequeued) requests right now. */
    size_t depth() const;

    size_t slotCount() const { return slots_.size(); }
    size_t capacity() const { return capacity_; }
    size_t inElems() const { return in_elems_; }
    size_t outElems() const { return out_elems_; }

  private:
    friend struct ServerTestPeer; // lends every runner to a test

    enum class RunnerState : uint8_t { Idle, Busy, Lent };

    /** Lend runner @p r if it is idle (mu_ held). */
    bool lendLocked(size_t r);
    /**
     * Runner @p r finished its batch (mu_ held). True when it was lent
     * and its batcher has work or must see the stop: wake batchers.
     */
    bool idleLocked(size_t r);

    struct Slot
    {
        std::vector<double> input;  ///< pre-sized to in_elems
        std::vector<double> output; ///< pre-sized to out_elems
        RequestStatus status = RequestStatus::Free;
        uint32_t gen = 0;
        Clock::time_point enqueued_at{};
        uint64_t deadline_us = 0;
        RequestTiming timing{};
        uint64_t trace_id = 0;   ///< flight-recorder id (0: off)
        uint64_t enqueue_us = 0; ///< hostNowUs at admission
    };

    const size_t capacity_;
    const size_t in_elems_;
    const size_t out_elems_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_; ///< wakes dequeueBatch
    std::condition_variable done_cv_; ///< wakes wait
    bool stop_ = false;

    std::vector<Slot> slots_;
    std::vector<uint32_t> free_; ///< free slot ids (stack, reserved)
    std::vector<uint32_t> ring_; ///< FIFO of pending ids (fixed size)
    size_t head_ = 0;            ///< ring read index
    size_t size_ = 0;            ///< pending count
    std::vector<RunnerState> runners_;
    size_t active_ = 0; ///< runners busy or lent
    size_t lent_ = 0;   ///< runners lent
};

} // namespace serve
} // namespace tie

#endif // TIE_SERVE_REQUEST_QUEUE_HH
