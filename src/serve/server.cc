#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "serve/serve_stats.hh"

namespace tie {
namespace serve {

namespace {

/** Validate the layer chain once, before any member reads it. */
std::vector<TtLayerViewD>
validatedModel(std::vector<TtLayerViewD> model)
{
    TIE_CHECK_ARG(!model.empty(), "Server needs at least one layer");
    for (size_t i = 0; i + 1 < model.size(); ++i)
        TIE_CHECK_ARG(model[i].cfg.outSize() ==
                          model[i + 1].cfg.inSize(),
                      "Server layer ", i, " outputs ",
                      model[i].cfg.outSize(), " values but layer ",
                      i + 1, " consumes ", model[i + 1].cfg.inSize());
    return model;
}

ServerOptions
validatedOptions(ServerOptions opts)
{
    TIE_CHECK_ARG(opts.max_batch >= 1, "max_batch must be >= 1");
    TIE_CHECK_ARG(opts.workers >= 1, "workers must be >= 1");
    TIE_CHECK_ARG(opts.queue_capacity >= 1,
                  "queue_capacity must be >= 1");
    return opts;
}

/**
 * Slots must cover every place a request can live at once: the queue,
 * each worker's in-flight batch, and completed-but-uncollected
 * requests, of which open-loop clients may hold up to this many. A
 * caller-runs request takes the place of its lent worker's batch: a
 * worker is lent only while it holds none, and takes none while lent.
 */
constexpr size_t kCollectMargin = 64;

size_t
slotCount(const ServerOptions &opts)
{
    return opts.queue_capacity + opts.workers * opts.max_batch +
           kCollectMargin;
}

} // namespace

Server::Server(std::vector<TtLayerViewD> model, ServerOptions opts)
    : model_(validatedModel(std::move(model))),
      opts_(validatedOptions(opts)),
      in_size_(model_.front().cfg.inSize()),
      out_size_(model_.back().cfg.outSize()),
      queue_(slotCount(opts_), opts_.queue_capacity, in_size_,
             out_size_, opts_.workers)
{
    // The staging buffers carry every inter-layer interface, so size
    // them for the widest one.
    size_t max_width = in_size_;
    for (const TtLayerViewD &layer : model_)
        max_width = std::max(max_width, layer.cfg.outSize());

    workers_.reserve(opts_.workers);
    for (size_t w = 0; w < opts_.workers; ++w) {
        auto wk = std::make_unique<Worker>();
        wk->sessions.reserve(model_.size());
        for (const TtLayerViewD &layer : model_)
            wk->sessions.push_back(InferSessionD(layer, opts_.session));
        wk->buf_a.assign(max_width * opts_.max_batch, 0.0);
        wk->buf_b.assign(max_width * opts_.max_batch, 0.0);
        wk->ids.resize(opts_.max_batch);
        wk->index = w;

        // Warm the whole chain at max_batch: the session arenas and
        // group blocks are grow-only and sized by the batch tile,
        // which only shrinks with the batch, so every batch size
        // 1..max_batch is allocation-free from here on.
        double *cur = wk->buf_a.data();
        double *nxt = wk->buf_b.data();
        for (InferSessionD &s : wk->sessions) {
            s.runPtr(cur, opts_.max_batch, nxt);
            std::swap(cur, nxt);
        }
        workers_.push_back(std::move(wk));
    }
    for (auto &wk : workers_)
        wk->thread = std::thread([this, w = wk.get()] {
            workerLoop(*w);
        });
}

Server::~Server()
{
    stop();
}

Ticket
Server::submit(const void *x, uint64_t deadline_us, bool more_follows,
               int notify_fd, InputLoader load)
{
    // Caller-runs: on an idle server, run the request here as a batch
    // of one on a worker's chain rather than wake the worker to wait
    // out the batch window for company that is not coming. A burst
    // always queues.
    const bool fr = obs::FlightRecorder::enabled();
    const uint64_t bf_t0 = fr ? obs::hostNowUs() : 0;
    size_t lent = RequestQueue::kNoRunner;
    const Ticket t = queue_.trySubmit(
        x, deadline_us, more_follows ? nullptr : &lent, notify_fd, load);
    if (lent != RequestQueue::kNoRunner)
        runBatch(*workers_[lent], &t.id, 1, fr, bf_t0);
    return t;
}

Ticket
Server::submit(const std::vector<double> &x, uint64_t deadline_us,
               bool more_follows)
{
    TIE_CHECK_ARG(x.size() == in_size_, "submit got ", x.size(),
                  " values, expected ", in_size_);
    return submit(x.data(), deadline_us, more_follows);
}

RequestStatus
Server::wait(Ticket t, std::vector<double> *out, RequestTiming *timing)
{
    return queue_.wait(t, out, timing);
}

void
Server::stop()
{
    if (stopped_)
        return;
    stopped_ = true;
    queue_.stop();
    // A worker does not leave dequeueBatch while its chain is lent,
    // so the joins also wait out every caller-runs run in progress.
    for (auto &wk : workers_)
        if (wk->thread.joinable())
            wk->thread.join();
}

void
Server::workerLoop(Worker &w)
{
    for (;;) {
        // Sample the recorder gate once per batch so the event set is
        // internally consistent even if the recorder flips mid-batch.
        const bool fr = obs::FlightRecorder::enabled();
        const uint64_t bf_t0 = fr ? obs::hostNowUs() : 0;

        const size_t n = queue_.dequeueBatch(
            opts_.max_batch, opts_.batch_timeout_us, w.ids.data(),
            w.index);
        if (n == 0)
            return; // stopped, drained and not lent
        runBatch(w, w.ids.data(), n, fr, bf_t0);
    }
}

void
Server::runBatch(Worker &w, const uint32_t *ids, size_t n, bool fr,
                 uint64_t bf_t0)
{
    using Clock = RequestQueue::Clock;
    const size_t n_in = in_size_;
    const size_t n_out = out_size_;
    obs::HostSpan span("serve.batch");

    obs::FlightEvent ev; // template: all events share the tag
    if (fr) {
        const uint32_t tag = flight_tag_.load(std::memory_order_relaxed);
        ev.batch_id = obs::FlightRecorder::nextBatchId();
        ev.model_id = static_cast<uint16_t>(tag >> 16);
        ev.model_version = static_cast<uint16_t>(tag & 0xffff);
    }
    auto flight = [&](obs::FlightPhase ph, uint64_t t0, uint64_t t1,
                      uint64_t trace_id = 0) {
        ev.phase = static_cast<uint8_t>(ph);
        ev.t0_us = t0;
        ev.t1_us = t1;
        ev.trace_id = trace_id;
        obs::FlightRecorder::instance().record(ev);
    };
    if (fr) {
        const uint64_t now = obs::hostNowUs();
        // BatchForm first, then the member Queue events: the drain
        // thread reassembles this thread's ring in order.
        flight(obs::FlightPhase::BatchForm, bf_t0, now);
        for (size_t b = 0; b < n; ++b) {
            const uint64_t trace_id = queue_.traceId(ids[b]);
            if (trace_id != 0)
                flight(obs::FlightPhase::Queue, queue_.enqueueUs(ids[b]),
                       now, trace_id);
        }
    }

    // Gather: request b becomes column b of the row-major N x n
    // staging block — the layout under which batched TT inference is
    // column-wise bit-identical to batch-1 runs. A batch of one runs
    // in place in its slots; its Gather and Scatter take no time.
    uint64_t ph_t0 = fr ? obs::hostNowUs() : 0;
    const bool in_place = n == 1;
    double *bufs[2] = {w.buf_a.data(), w.buf_b.data()};
    for (size_t b = 0; b < n && !in_place; ++b) {
        const std::vector<double> &in = queue_.input(ids[b]);
        for (size_t r = 0; r < n_in; ++r)
            bufs[0][r * n + b] = in[r];
    }
    const double *cur = in_place ? queue_.input(ids[0]).data() : bufs[0];
    if (fr) {
        const uint64_t now = in_place ? ph_t0 : obs::hostNowUs();
        flight(obs::FlightPhase::Gather, ph_t0, now);
        ph_t0 = now;
    }

    const Clock::time_point t0 = Clock::now();
    const size_t layers = w.sessions.size();
    for (size_t i = 0; i < layers; ++i) {
        double *nxt = in_place && i + 1 == layers
                          ? queue_.output(ids[0]).data()
                          : bufs[(i + 1) % 2];
        w.sessions[i].runPtr(cur, n, nxt);
        cur = nxt;
    }
    const double service_us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0)
            .count();
    if (fr) {
        const uint64_t now = obs::hostNowUs();
        flight(obs::FlightPhase::Infer, ph_t0, now);
        ph_t0 = now;
    }

    for (size_t b = 0; b < n && !in_place; ++b) {
        std::vector<double> &out = queue_.output(ids[b]);
        for (size_t r = 0; r < n_out; ++r)
            out[r] = cur[r * n + b];
    }
    if (fr) {
        const uint64_t now = in_place ? ph_t0 : obs::hostNowUs();
        flight(obs::FlightPhase::Scatter, ph_t0, now);
        ph_t0 = now;
    }

    if (obs::enabled()) {
        detail::ServeStats &ss = detail::ServeStats::get();
        ss.batches.add();
        ss.batch_size.record(static_cast<double>(n));
        ss.service_us.record(service_us);
    }
    queue_.completeBatch(ids, n, service_us, w.index);
    if (fr)
        flight(obs::FlightPhase::Complete, ph_t0, obs::hostNowUs());
}

} // namespace serve
} // namespace tie
