#include "arch/stats_io.hh"

#include "obs/json.hh"
#include "obs/trace.hh"

namespace tie {

namespace {

void
writeStage(obs::JsonWriter &w, const StageStats &st)
{
    w.beginObject();
    w.field("layer_index", static_cast<uint64_t>(st.layer_index));
    w.field("core_index", static_cast<uint64_t>(st.core_index));
    w.field("cycles", static_cast<uint64_t>(st.cycles));
    w.field("mac_ops", static_cast<uint64_t>(st.mac_ops));
    w.field("stall_cycles", static_cast<uint64_t>(st.stall_cycles));
    w.endObject();
}

} // namespace

std::string
stageStatsJson(const StageStats &st)
{
    obs::JsonWriter w;
    writeStage(w, st);
    return w.str();
}

std::string
simStatsJson(const SimStats &s)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("cycles", static_cast<uint64_t>(s.cycles));
    w.field("mac_ops", static_cast<uint64_t>(s.mac_ops));
    w.field("weight_sram_reads",
            static_cast<uint64_t>(s.weight_sram_reads));
    w.field("working_sram_reads",
            static_cast<uint64_t>(s.working_sram_reads));
    w.field("working_sram_writes",
            static_cast<uint64_t>(s.working_sram_writes));
    w.field("reg_writes", static_cast<uint64_t>(s.reg_writes));
    w.field("stall_cycles", static_cast<uint64_t>(s.stall_cycles));
    w.key("stages").beginArray();
    for (const StageStats &st : s.stages)
        writeStage(w, st);
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
powerReportJson(const PowerReport &p)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("memory_mw", p.memory_mw);
    w.field("register_mw", p.register_mw);
    w.field("combinational_mw", p.combinational_mw);
    w.field("clock_mw", p.clock_mw);
    w.field("total_mw", p.totalMw());
    w.endObject();
    return w.str();
}

std::string
perfReportJson(const PerfReport &r)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("latency_us", r.latency_us);
    w.field("energy_nj", r.energy_nj);
    w.field("power_mw", r.power_mw);
    w.field("effective_gops", r.effective_gops);
    w.field("area_mm2", r.area_mm2);
    w.field("gops_per_watt", r.gopsPerWatt());
    w.field("gops_per_mm2", r.gopsPerMm2());
    w.endObject();
    return w.str();
}

void
traceSimLayer(const SimStats &layer, size_t layer_index,
              size_t stage_switch_cycles)
{
    obs::Trace &tr = obs::Trace::instance();
    if (!tr.simOn())
        return;

    tr.setSimTrackName(0, "layers");
    tr.setSimTrackName(1, "stages (core h)");
    tr.setSimTrackName(2, "stalls / switch");

    const uint64_t base = tr.simCursor();
    tr.simSpan("layer " + std::to_string(layer_index), base,
               layer.cycles, 0,
               {{"cycles", layer.cycles},
                {"mac_ops", layer.mac_ops},
                {"stall_cycles", layer.stall_cycles}});

    uint64_t t = base;
    for (const StageStats &st : layer.stages) {
        tr.simSpan("stage h=" + std::to_string(st.core_index), t,
                   st.cycles, 1,
                   {{"layer_index", st.layer_index},
                    {"mac_ops", st.mac_ops},
                    {"stall_cycles", st.stall_cycles}});
        if (st.stall_cycles > 0)
            tr.simSpan("stalls", t, st.stall_cycles, 2,
                       {{"stall_cycles", st.stall_cycles}});
        if (stage_switch_cycles > 0 && st.cycles >= stage_switch_cycles)
            tr.simSpan("switch", t + st.cycles - stage_switch_cycles,
                       stage_switch_cycles, 2);
        t += st.cycles;
    }
    tr.advanceSimCursor(layer.cycles);
}

} // namespace tie
