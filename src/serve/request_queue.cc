#include "serve/request_queue.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "serve/serve_stats.hh"

namespace tie {
namespace serve {

namespace {

double
elapsedUs(RequestQueue::Clock::time_point from,
          RequestQueue::Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

} // namespace

const char *
toString(RequestStatus s)
{
    switch (s) {
    case RequestStatus::Free:
        return "free";
    case RequestStatus::Pending:
        return "pending";
    case RequestStatus::Running:
        return "running";
    case RequestStatus::Done:
        return "done";
    case RequestStatus::TimedOut:
        return "timed_out";
    case RequestStatus::Rejected:
        return "rejected";
    }
    return "?";
}

RequestQueue::RequestQueue(size_t n_slots, size_t capacity,
                           size_t in_elems, size_t out_elems,
                           size_t runners)
    : capacity_(capacity), in_elems_(in_elems), out_elems_(out_elems),
      runners_(runners, RunnerState::Idle)
{
    TIE_CHECK_ARG(n_slots >= 1 && capacity >= 1 && in_elems >= 1 &&
                      out_elems >= 1,
                  "RequestQueue needs n_slots/capacity/in_elems/"
                  "out_elems >= 1");
    TIE_CHECK_ARG(n_slots >= capacity,
                  "RequestQueue slot table (", n_slots,
                  ") must cover the queue capacity (", capacity, ")");
    slots_.resize(n_slots);
    for (Slot &s : slots_) {
        s.input.resize(in_elems_);
        s.output.resize(out_elems_);
    }
    free_.reserve(n_slots);
    // LIFO free list; hand out low ids first for readable tests.
    for (size_t i = n_slots; i-- > 0;)
        free_.push_back(static_cast<uint32_t>(i));
    ring_.resize(capacity_, Ticket::kInvalidId);
}

Ticket
RequestQueue::trySubmit(const double *x, uint64_t deadline_us,
                        size_t *runner)
{
    TIE_CHECK_ARG(x != nullptr, "trySubmit needs a non-null input");
    if (runner != nullptr)
        *runner = kNoRunner;
    // Sampled before the lock so the gate cost stays one relaxed load
    // and the Enqueue event below matches the assigned trace id.
    const bool fr = obs::FlightRecorder::enabled();
    uint64_t trace_id = 0;
    uint64_t enqueue_us = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!stop_ && size_ < capacity_ && !free_.empty()) {
            // Caller-runs: an idle queue — nothing queued, no runner
            // busy or lent — lends runner 0 to the caller instead of
            // handing the request to a batcher.
            const bool run_here = runner != nullptr && size_ == 0 &&
                                  active_ == 0 && lendLocked(0);
            const uint32_t id = free_.back();
            free_.pop_back();
            Slot &s = slots_[id];
            s.enqueued_at = Clock::now();
            s.deadline_us = deadline_us;
            s.timing = RequestTiming{};
            if (fr) {
                trace_id = obs::FlightRecorder::nextTraceId();
                enqueue_us = obs::hostNowUs();
            }
            s.trace_id = trace_id;
            s.enqueue_us = enqueue_us;
            std::copy(x, x + in_elems_, s.input.begin());
            if (run_here) {
                *runner = 0;
                s.status = RequestStatus::Running;
                // The sample a dequeue would have recorded.
                if (obs::enabled())
                    detail::ServeStats::get().queue_wait_us.record(0.0);
            } else {
                s.status = RequestStatus::Pending;
                ring_[(head_ + size_) % ring_.size()] = id;
                ++size_;
                // A lent batcher may be the one notify_one picks and
                // cannot take the request; wake them all then.
                if (lent_ > 0)
                    work_cv_.notify_all();
                else
                    work_cv_.notify_one();
            }
            if (obs::enabled())
                detail::ServeStats::get().accepted.add();
            if (fr) {
                obs::FlightEvent e;
                e.t0_us = e.t1_us = enqueue_us;
                e.trace_id = trace_id;
                e.phase =
                    static_cast<uint8_t>(obs::FlightPhase::Enqueue);
                obs::FlightRecorder::instance().record(e);
            }
            return Ticket{id, s.gen};
        }
    }
    if (obs::enabled())
        detail::ServeStats::get().rejected.add();
    return Ticket{};
}

RequestStatus
RequestQueue::wait(Ticket t, std::vector<double> *out,
                   RequestTiming *timing, uint64_t timeout_us)
{
    if (!t.valid())
        return RequestStatus::Rejected;
    TIE_CHECK_ARG(t.id < slots_.size(), "ticket id ", t.id,
                  " out of range");
    std::unique_lock<std::mutex> lk(mu_);
    Slot &s = slots_[t.id];
    const auto ended = [&] {
        return s.gen != t.gen || isTerminal(s.status);
    };
    if (timeout_us == 0)
        done_cv_.wait(lk, ended);
    else if (!done_cv_.wait_for(lk, std::chrono::microseconds(timeout_us),
                                ended))
        return s.status; // still Pending or Running; not collected
    TIE_CHECK_ARG(s.gen == t.gen,
                  "ticket ", t.id, " was already collected");
    const RequestStatus st = s.status;
    if (st == RequestStatus::Done && out != nullptr) {
        out->resize(out_elems_);
        std::copy(s.output.begin(), s.output.end(), out->begin());
    }
    if (timing != nullptr)
        *timing = s.timing;
    s.status = RequestStatus::Free;
    ++s.gen;
    free_.push_back(t.id);
    return st;
}

size_t
RequestQueue::dequeueBatch(size_t max_batch, uint64_t timeout_us,
                           uint32_t *ids, size_t runner)
{
    TIE_CHECK_ARG(max_batch >= 1 && ids != nullptr,
                  "dequeueBatch needs max_batch >= 1 and an id array");
    TIE_CHECK_ARG(runner == kNoRunner || runner < runners_.size(),
                  "dequeueBatch runner ", runner, " out of range");
    std::unique_lock<std::mutex> lk(mu_);
    RunnerState *self =
        runner == kNoRunner ? nullptr : &runners_[runner];
    const auto lent = [&] {
        return self != nullptr && *self == RunnerState::Lent;
    };
    size_t n = 0;
    for (;;) {
        work_cv_.wait(lk, [&] {
            return !lent() && (stop_ || size_ > 0);
        });
        if (size_ == 0)
            break; // stopped and drained

        // Let the batch fill, but never hold the oldest request past
        // timeout_us of queue wait (and don't dally during shutdown).
        if (timeout_us > 0 && size_ < max_batch && !stop_) {
            const Clock::time_point window_end =
                slots_[ring_[head_]].enqueued_at +
                std::chrono::microseconds(timeout_us);
            work_cv_.wait_until(lk, window_end, [&] {
                return stop_ || size_ >= max_batch;
            });
            if (size_ == 0 || lent())
                continue; // raced with another batcher
        }

        const Clock::time_point now = Clock::now();
        size_t expired = 0;
        while (n < max_batch && size_ > 0) {
            const uint32_t id = ring_[head_];
            head_ = (head_ + 1) % ring_.size();
            --size_;
            Slot &s = slots_[id];
            if (s.deadline_us > 0 &&
                now >= s.enqueued_at +
                           std::chrono::microseconds(s.deadline_us)) {
                s.status = RequestStatus::TimedOut;
                s.timing.queue_wait_us = elapsedUs(s.enqueued_at, now);
                ++expired;
                continue;
            }
            s.status = RequestStatus::Running;
            s.timing.queue_wait_us = elapsedUs(s.enqueued_at, now);
            if (obs::enabled())
                detail::ServeStats::get().queue_wait_us.record(
                    s.timing.queue_wait_us);
            ids[n++] = id;
        }
        if (expired > 0) {
            if (obs::enabled())
                detail::ServeStats::get().timed_out.add(expired);
            done_cv_.notify_all();
        }
        if (n > 0)
            break;
        // Everything dequeued this round had expired; wait for more.
    }
    if (self != nullptr && n > 0) {
        *self = RunnerState::Busy;
        ++active_;
    }
    return n;
}

const std::vector<double> &
RequestQueue::input(uint32_t id) const
{
    TIE_CHECK_ARG(id < slots_.size(), "slot id ", id, " out of range");
    return slots_[id].input;
}

std::vector<double> &
RequestQueue::output(uint32_t id)
{
    TIE_CHECK_ARG(id < slots_.size(), "slot id ", id, " out of range");
    return slots_[id].output;
}

uint64_t
RequestQueue::traceId(uint32_t id) const
{
    TIE_CHECK_ARG(id < slots_.size(), "slot id ", id, " out of range");
    return slots_[id].trace_id;
}

uint64_t
RequestQueue::enqueueUs(uint32_t id) const
{
    TIE_CHECK_ARG(id < slots_.size(), "slot id ", id, " out of range");
    return slots_[id].enqueue_us;
}

void
RequestQueue::completeBatch(const uint32_t *ids, size_t n,
                            double service_us, size_t runner)
{
    if (n == 0)
        return;
    TIE_CHECK_ARG(ids != nullptr, "completeBatch needs an id array");
    bool wake_runner = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (runner != kNoRunner)
            wake_runner = idleLocked(runner);
        for (size_t i = 0; i < n; ++i) {
            TIE_CHECK_ARG(ids[i] < slots_.size(), "slot id ", ids[i],
                          " out of range");
            Slot &s = slots_[ids[i]];
            TIE_REQUIRE(s.status == RequestStatus::Running,
                        "completeBatch on a slot that is not Running");
            s.status = RequestStatus::Done;
            s.timing.service_us = service_us;
        }
    }
    if (obs::enabled())
        detail::ServeStats::get().completed.add(n);
    if (wake_runner)
        work_cv_.notify_all(); // the returned batcher among them
    done_cv_.notify_all();
}

bool
RequestQueue::lendLocked(size_t r)
{
    if (r >= runners_.size() || runners_[r] != RunnerState::Idle)
        return false;
    runners_[r] = RunnerState::Lent;
    ++active_;
    ++lent_;
    return true;
}

bool
RequestQueue::idleLocked(size_t r)
{
    TIE_REQUIRE(r < runners_.size() && runners_[r] != RunnerState::Idle,
                "runner ", r, " completed a batch it did not run");
    const bool was_lent = runners_[r] == RunnerState::Lent;
    if (was_lent)
        --lent_;
    --active_;
    runners_[r] = RunnerState::Idle;
    return was_lent && (stop_ || size_ > 0);
}

void
RequestQueue::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    done_cv_.notify_all();
}

bool
RequestQueue::stopped() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stop_;
}

size_t
RequestQueue::depth() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return size_;
}

} // namespace serve
} // namespace tie
