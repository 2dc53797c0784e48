/**
 * @file
 * JSON serialization of the simulator's statistics and reports, plus
 * the emitter that turns a finished layer's SimStats into Chrome-trace
 * events on the simulated-cycle timeline.
 *
 * All JSON is emitted with a fixed key order and shortest-round-trip
 * number formatting, so output for fixed inputs is byte-stable and can
 * be golden-compared by tests.
 */

#ifndef TIE_ARCH_STATS_IO_HH
#define TIE_ARCH_STATS_IO_HH

#include <string>

#include "arch/stats.hh"

namespace tie {

/** {"layer_index":..,"core_index":..,"cycles":..,...} */
std::string stageStatsJson(const StageStats &st);

/** Totals plus a "stages" array of stageStatsJson objects. */
std::string simStatsJson(const SimStats &s);

/** Table-6 power breakdown (mW) with the derived total. */
std::string powerReportJson(const PowerReport &p);

/** Latency/energy/power/throughput/area with derived efficiencies. */
std::string perfReportJson(const PerfReport &r);

/**
 * Append one simulated layer to the global Chrome-trace timeline: a
 * layer span (track 0), one span per stage (track 1) and the
 * stall/switch activity (track 2, stalls aggregated at stage start).
 * Advances the trace's simulated-cycle cursor by the layer's cycles.
 * No-op unless sim tracing is on.
 */
void traceSimLayer(const SimStats &layer, size_t layer_index,
                   size_t stage_switch_cycles);

} // namespace tie

#endif // TIE_ARCH_STATS_IO_HH
