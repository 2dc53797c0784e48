/**
 * @file
 * Cached references to the serve.* registry stats, shared by the
 * queue and the server so hot-path updates never lock the registry
 * (same pattern as PoolStats in common/thread_pool.cc). Internal to
 * src/serve; nothing outside the serving layer includes this.
 */

#ifndef TIE_SERVE_SERVE_STATS_HH
#define TIE_SERVE_SERVE_STATS_HH

#include "obs/stat_registry.hh"

namespace tie {
namespace serve {
namespace detail {

struct ServeStats
{
    obs::Counter &accepted;
    obs::Counter &rejected;
    obs::Counter &timed_out;
    obs::Counter &completed;
    obs::Counter &batches;
    obs::Distribution &queue_wait_us;
    obs::Distribution &batch_size;
    obs::Distribution &service_us;
    obs::Gauge &slots_allocated;

    static ServeStats &
    get()
    {
        auto &reg = obs::StatRegistry::instance();
        static ServeStats s{
            reg.counter("serve.accepted",
                        "requests admitted into the queue"),
            reg.counter("serve.rejected",
                        "requests refused at admission (queue full)"),
            reg.counter("serve.timed_out",
                        "requests whose enqueue deadline expired"),
            reg.counter("serve.completed", "requests served to Done"),
            reg.counter("serve.batches", "inference batches executed"),
            reg.distribution(
                "serve.queue_wait_us",
                "microseconds from enqueue to batch pickup"),
            reg.distribution("serve.batch_size",
                             "requests coalesced per executed batch"),
            reg.distribution(
                "serve.service_us",
                "inference wall-clock microseconds per batch"),
            reg.gauge("serve.slots_allocated",
                      "request slots holding payload buffers (the "
                      "queue that grew last)"),
        };
        return s;
    }
};

} // namespace detail
} // namespace serve
} // namespace tie

#endif // TIE_SERVE_SERVE_STATS_HH
