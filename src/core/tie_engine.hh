/**
 * @file
 * TieEngine — the library's top-level public API. It owns a TIE
 * hardware configuration and a stack of TT-format layers, and offers:
 *
 *  - functional float inference via the compact scheme (host-side),
 *  - bit-accurate cycle-accurate simulation of the full network on the
 *    modelled accelerator, with aggregated statistics and a
 *    power/area/performance report,
 *  - analytic throughput estimation for design-space sweeps (Fig. 13
 *    and the architecture ablations).
 */

#ifndef TIE_CORE_TIE_ENGINE_HH
#define TIE_CORE_TIE_ENGINE_HH

#include <optional>

#include "arch/tie_sim.hh"
#include "tt/infer_session.hh"

namespace tie {

/** One layer's slice of a simulated run, with attribution. */
struct EngineLayerReport
{
    size_t layer_index = 0;
    SimStats stats;
    PerfReport perf;
};

/** A full inference run's outputs and reports. */
struct EngineRunReport
{
    Matrix<int16_t> output;
    SimStats stats;
    PerfReport perf;
    std::vector<EngineLayerReport> per_layer;
};

/**
 * Serialize a run report as JSON: totals, aggregate perf, and the
 * per-layer breakdown; stable key order (see arch/stats_io.hh).
 */
std::string engineReportJson(const EngineRunReport &rep);

class Sequential;

/** Facade over the TT layer stack and the TIE hardware model. */
class TieEngine
{
  public:
    explicit TieEngine(TieArchConfig cfg = {},
                       TechModel tech = TechModel::cmos28());

    /**
     * Build an engine from a trained host-side model: every TtDense
     * layer maps to an accelerator layer; a following ReLU folds into
     * its activation units. Any other layer type is a user error —
     * TIE executes TT GEMM chains only.
     */
    static TieEngine fromSequential(Sequential &model,
                                    TieArchConfig cfg = {},
                                    FxpFormat act_fmt = FxpFormat{16, 8},
                                    TechModel tech = TechModel::cmos28());

    const TieArchConfig &archConfig() const { return cfg_; }
    const TechModel &tech() const { return tech_; }

    /**
     * Append a TT layer. The float cores are quantised with a shared
     * activation format so consecutive layers chain on the
     * accelerator.
     *
     * @param relu apply ReLU in the activation units after this layer.
     * @return the layer index.
     */
    size_t addLayer(const TtMatrix &tt, bool relu = true,
                    FxpFormat act_fmt = FxpFormat{16, 8});

    /** Append a pre-quantised layer. */
    size_t addLayer(TtMatrixFxp tt, bool relu = true);

    size_t layerCount() const { return layers_.size(); }
    const TtMatrixFxp &layer(size_t i) const { return layers_[i]; }

    /**
     * Host-side float inference (compact scheme), batch columns. Each
     * layer's InferSession is built by addLayer, view-only over that
     * layer's cores, and reused across calls, so repeat inference
     * performs no per-call plan building and no steady-state heap
     * allocation beyond the result. Not safe to call concurrently from
     * multiple threads (the sessions are shared).
     */
    MatrixD infer(const MatrixD &x) const;

    /**
     * Simulate the whole network on the modelled accelerator for one
     * input sample (raw int16 in the first layer's act_in format).
     */
    EngineRunReport simulate(const Matrix<int16_t> &x) const;

    /** Total dense-equivalent operation count (2*M*N summed). */
    double denseEquivalentOps() const;

    /** Static area of the configured accelerator. */
    double areaMm2() const;

    /**
     * Analytic latency of one inference at the configured clock,
     * without running data through the datapath.
     */
    double analyticLatencyUs() const;

  private:
    TieArchConfig cfg_;
    TechModel tech_;
    std::vector<TtMatrixFxp> layers_;
    std::vector<TtMatrix> layers_float_;
    std::vector<bool> relu_;

    /**
     * Per-layer inference sessions (nullopt for pre-quantised layers
     * with no float twin), built by addLayer over layers_float_'s
     * cores, whose heap storage moves with the TtMatrix objects.
     */
    mutable std::vector<std::optional<InferSessionD>> sessions_;
};

/**
 * Closed-form cycles for a TT GEMM with @p batch operand columns per
 * stage-column (CONV layers run H'*W' pixels as a batch — Fig. 3).
 */
size_t analyticBatchedCycles(const TtLayerConfig &layer, size_t batch,
                             const TieArchConfig &cfg);

} // namespace tie

#endif // TIE_CORE_TIE_ENGINE_HH
