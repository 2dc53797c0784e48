#include "core/tie_engine.hh"

#include <type_traits>

#include "arch/stats_io.hh"
#include "nn/activations.hh"
#include "nn/sequential.hh"
#include "nn/tt_dense.hh"
#include "tt/tt_infer.hh"

namespace tie {

// Each float session views its layer's cores in their heap storage; a
// reallocation of layers_float_ must move those buffers, not copy them.
static_assert(std::is_nothrow_move_constructible_v<TtMatrix>);

TieEngine::TieEngine(TieArchConfig cfg, TechModel tech)
    : cfg_(cfg), tech_(tech)
{}

TieEngine
TieEngine::fromSequential(Sequential &model, TieArchConfig cfg,
                          FxpFormat act_fmt, TechModel tech)
{
    TieEngine engine(cfg, tech);
    for (size_t i = 0; i < model.size(); ++i) {
        Layer &l = model.layer(i);
        if (dynamic_cast<Relu *>(&l) != nullptr) {
            TIE_CHECK_ARG(i > 0 &&
                          dynamic_cast<TtDense *>(&model.layer(i - 1)),
                          "ReLU at position ", i,
                          " does not follow a TtDense layer");
            continue; // folded into the previous layer below
        }
        auto *tt = dynamic_cast<TtDense *>(&l);
        TIE_CHECK_ARG(tt != nullptr,
                      "layer ", i, " (", l.name(),
                      ") cannot run on TIE — only TtDense (+ ReLU) "
                      "chains map to the accelerator");
        const bool relu =
            i + 1 < model.size() &&
            dynamic_cast<Relu *>(&model.layer(i + 1)) != nullptr;
        engine.addLayer(tt->toTtMatrix(), relu, act_fmt);
    }
    TIE_CHECK_ARG(engine.layerCount() > 0,
                  "model contains no TtDense layers");
    return engine;
}

size_t
TieEngine::addLayer(const TtMatrix &tt, bool relu, FxpFormat act_fmt)
{
    layers_float_.push_back(tt);
    layers_.push_back(TtMatrixFxp::quantizeAuto(tt, act_fmt));
    sessions_.emplace_back(makeSession(layers_float_.back()));
    relu_.push_back(relu);
    return layers_.size() - 1;
}

size_t
TieEngine::addLayer(TtMatrixFxp tt, bool relu)
{
    if (!layers_.empty()) {
        const MacFormat &prev = layers_.back().stage_fmt.front();
        const MacFormat &next = tt.stage_fmt.back();
        TIE_CHECK_ARG(prev.act_out.frac_bits == next.act_in.frac_bits,
                      "layer ", layers_.size(),
                      " input format does not chain with the previous "
                      "layer's output format");
    }
    layers_float_.emplace_back(); // no float twin available
    sessions_.emplace_back(std::nullopt);
    layers_.push_back(std::move(tt));
    relu_.push_back(relu);
    return layers_.size() - 1;
}

MatrixD
TieEngine::infer(const MatrixD &x) const
{
    TIE_CHECK_ARG(!layers_.empty(), "no layers registered");
    MatrixD v = x;
    for (size_t i = 0; i < layers_.size(); ++i) {
        TIE_CHECK_ARG(sessions_[i].has_value(),
                      "layer ", i, " was added pre-quantised; float "
                      "inference is unavailable for it");
        v = sessions_[i]->run(v);
        if (relu_[i]) {
            for (auto &e : v.flat())
                e = e > 0.0 ? e : 0.0;
        }
    }
    return v;
}

EngineRunReport
TieEngine::simulate(const Matrix<int16_t> &x) const
{
    TIE_CHECK_ARG(!layers_.empty(), "no layers registered");
    TieSimulator sim(cfg_, tech_);

    // Intermediates stay resident in the working SRAMs between layers
    // (paper Sec. 4.4's inter-layer transform).
    std::vector<TieSimulator::NetworkLayer> net;
    net.reserve(layers_.size());
    for (size_t i = 0; i < layers_.size(); ++i)
        net.push_back({&layers_[i], relu_[i]});
    TieSimulator::NetworkResult r = sim.runNetwork(net, x);

    EngineRunReport rep;
    for (size_t i = 0; i < layers_.size(); ++i) {
        EngineLayerReport lr;
        lr.layer_index = i;
        lr.perf =
            makePerfReport(r.per_layer[i], layers_[i].config.outSize(),
                           layers_[i].config.inSize(), cfg_, tech_);
        lr.stats = std::move(r.per_layer[i]);
        rep.per_layer.push_back(std::move(lr));
    }
    rep.stats = std::move(r.total);
    rep.output = std::move(r.output);

    // Aggregate report: dense-equivalent ops over total cycles.
    rep.perf = makePerfReport(rep.stats, 1, 1, cfg_, tech_);
    rep.perf.effective_gops =
        denseEquivalentOps() /
        (rep.perf.latency_us * 1.0e3); // ops per ns = GOPS
    return rep;
}

std::string
engineReportJson(const EngineRunReport &rep)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("totals").raw(simStatsJson(rep.stats));
    w.key("perf").raw(perfReportJson(rep.perf));
    w.key("per_layer").beginArray();
    for (const EngineLayerReport &lr : rep.per_layer) {
        w.beginObject();
        w.field("layer_index", static_cast<uint64_t>(lr.layer_index));
        w.key("stats").raw(simStatsJson(lr.stats));
        w.key("perf").raw(perfReportJson(lr.perf));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

double
TieEngine::denseEquivalentOps() const
{
    double ops = 0.0;
    for (const auto &l : layers_)
        ops += 2.0 * static_cast<double>(l.config.outSize()) *
               static_cast<double>(l.config.inSize());
    return ops;
}

double
TieEngine::areaMm2() const
{
    return TieFloorplan::build(cfg_, tech_).totalAreaMm2();
}

double
TieEngine::analyticLatencyUs() const
{
    size_t cycles = 0;
    for (const auto &l : layers_)
        cycles += TieSimulator::analyticCycles(l.config, cfg_);
    return static_cast<double>(cycles) / cfg_.freq_mhz;
}

size_t
analyticBatchedCycles(const TtLayerConfig &layer, size_t batch,
                      const TieArchConfig &cfg)
{
    size_t cycles = 0;
    for (size_t h = layer.d(); h >= 1; --h) {
        const size_t rblocks =
            (layer.coreRows(h) + cfg.n_mac - 1) / cfg.n_mac;
        const size_t cols = layer.stageCols(h) * batch;
        const size_t cblocks = (cols + cfg.n_pe - 1) / cfg.n_pe;
        cycles += rblocks * cblocks * layer.coreCols(h);
        cycles += cfg.stage_switch_cycles;
    }
    return cycles;
}

} // namespace tie
