#include "arch/tie_sim.hh"

#include "tt/stage_program.hh"
#include "arch/stats_io.hh"

namespace tie {

namespace {

constexpr size_t kPadCoord = static_cast<size_t>(-1);

/**
 * Per-sample geometry of the matrix currently holding the layer input
 * in the source working SRAM: its row-major flattening is the input
 * vector. For a DMA-loaded X' this is (n_d, stageCols(d)); for an
 * intermediate left resident by the previous layer it is that layer's
 * V_1 geometry (m_1, stageCols(1)).
 */
struct ResidentInput
{
    size_t rows = 0;
    size_t cols = 0;
};

/**
 * Logical coordinates (into the *source* working SRAM's stored matrix)
 * of the operand element at (row k, global column qt) of this stage's
 * operand, where the source holds `batch` sample blocks side by side.
 * The per-sample mapping is the controller's arithmetic address
 * generator (tt/stage_program.hh) — exactly the computation the grouped
 * read scheme of Algorithm 2 performs; no lookup tables exist in the
 * hardware. For the identity (stage-d) case the generator folds in the
 * resident-input geometry, which also realises the paper's inter-layer
 * transform.
 */
std::pair<size_t, size_t>
operandCoord(const StageDescriptor &desc, size_t k, size_t qt,
             size_t batch, const ResidentInput &in)
{
    const size_t cols = desc.cols;
    if (qt >= cols * batch)
        return {kPadCoord, kPadCoord};
    const size_t b = qt / cols;
    const size_t q = qt % cols;
    if (desc.identity) {
        const size_t flat = k * cols + q; // x-vector offset
        return {flat / in.cols, b * in.cols + flat % in.cols};
    }
    auto [sp, sq] = operandSource(desc, static_cast<uint32_t>(k),
                                  static_cast<uint32_t>(q));
    return {sp, b * desc.src_cols + sq};
}

} // namespace

TieSimulator::TieSimulator(TieArchConfig cfg, TechModel tech)
    : cfg_(cfg), tech_(tech)
{
    TIE_CHECK_ARG(cfg_.n_pe >= 1 && cfg_.n_mac >= 1,
                  "TIE needs at least one PE and one MAC");
}

namespace {

/**
 * Execute every stage of one layer. On entry `src` holds the layer
 * input (geometry `in`, sample-blocked); on exit the result V_1 is
 * resident in `src` (after the final swap) and `in` describes it.
 */
void
runStagesResident(const TieArchConfig &cfg, const TtMatrixFxp &tt,
                  bool relu, size_t batch, WeightSram &weights,
                  WorkingSram *&src, WorkingSram *&dst, PeArray &pes,
                  ResidentInput &in, SimStats &stats)
{
    const TtLayerConfig &layer = tt.config;
    const LayerProgram program = LayerProgram::compile(layer, relu);
    weights.loadLayer(tt);

    std::vector<std::pair<size_t, size_t>> coords(cfg.n_pe);
    std::vector<int16_t> vals;

    for (const StageDescriptor &desc : program.stages) {
        const size_t h = desc.core_index;
        const MacFormat &fmt = tt.stage_fmt[h - 1];
        const size_t rows = desc.rows;                 // NGrow
        const size_t inner = desc.inner;               // NGcol
        const size_t cols = size_t(desc.cols) * batch; // NVcol
        const size_t rblocks = (rows + cfg.n_mac - 1) / cfg.n_mac;
        const size_t cblocks = (cols + cfg.n_pe - 1) / cfg.n_pe;

        dst->configure(rows, cols);

        StageStats st;
        st.core_index = h;

        for (size_t rb = 0; rb < rblocks; ++rb) {
            for (size_t cb = 0; cb < cblocks; ++cb) {
                pes.resetAccumulators();
                for (size_t k = 0; k < inner; ++k) {
                    const auto &wcol = weights.readColumn(h, rb, k);
                    for (size_t lane = 0; lane < cfg.n_pe; ++lane)
                        coords[lane] =
                            operandCoord(desc, k,
                                         cb * cfg.n_pe + lane, batch,
                                         in);
                    auto g = src->gather(coords);
                    pes.step(wcol, g.values, fmt);
                    st.cycles += g.cycles;
                    st.stall_cycles += g.cycles - 1;
                }
                // Result sub-block write-back: one row-wide write per
                // MAC position, overlapped with the next pass (no
                // cycle cost — double-buffered result registers).
                for (size_t i = 0; i < cfg.n_mac; ++i) {
                    const size_t p = rb * cfg.n_mac + i;
                    if (p >= rows)
                        break;
                    vals.clear();
                    for (size_t lane = 0; lane < cfg.n_pe; ++lane) {
                        if (cb * cfg.n_pe + lane >= cols)
                            break;
                        vals.push_back(pes.result(i, lane, fmt,
                                                  desc.relu));
                    }
                    dst->writeRow(p, cb * cfg.n_pe, vals);
                }
            }
        }

        st.cycles += cfg.stage_switch_cycles;
        stats.cycles += st.cycles;
        stats.stall_cycles += st.stall_cycles;
        stats.stages.push_back(st);

        std::swap(src, dst);
        in = {rows, size_t(desc.cols)}; // resident geometry per sample
    }
}

/** Load the flat input vector(s) into X' layout via the write scheme. */
void
preloadInput(const TieArchConfig &cfg, const TtLayerConfig &layer,
             const Matrix<int16_t> &x, WorkingSram &src)
{
    const size_t nd = layer.n.back();
    const size_t cd = layer.stageCols(layer.d());
    const size_t batch = x.cols();
    src.configure(nd, cd * batch);
    std::vector<int16_t> vals;
    for (size_t p = 0; p < nd; ++p) {
        for (size_t b = 0; b < batch; ++b) {
            for (size_t q0 = 0; q0 < cd; q0 += cfg.n_pe) {
                vals.clear();
                for (size_t lane = 0; lane < cfg.n_pe; ++lane) {
                    const size_t q = q0 + lane;
                    if (q >= cd)
                        break;
                    vals.push_back(x(p * cd + q, b));
                }
                src.writeRow(p, b * cd + q0, vals);
            }
        }
    }
    src.resetCounters();
}

/** Read the resident result matrix back out as flat vectors. */
Matrix<int16_t>
readoutResident(const WorkingSram &src, const ResidentInput &in,
                size_t out_size, size_t batch)
{
    TIE_REQUIRE(in.rows * in.cols == out_size,
                "resident result geometry mismatch");
    Matrix<int16_t> y(out_size, batch);
    for (size_t b = 0; b < batch; ++b)
        for (size_t p = 0; p < in.rows; ++p)
            for (size_t q = 0; q < in.cols; ++q)
                y(p * in.cols + q, b) =
                    src.peek(p, b * in.cols + q);
    return y;
}

/** Collect the global counters into a stats record. */
void
finalizeCounters(SimStats &stats, const PeArray &pes,
                 const WeightSram &weights, const WorkingSram &ws0,
                 const WorkingSram &ws1)
{
    stats.mac_ops = pes.macOps();
    stats.reg_writes = pes.regWrites();
    stats.weight_sram_reads = weights.wordReads();
    stats.working_sram_reads = ws0.wordReads() + ws1.wordReads();
    stats.working_sram_writes = ws0.wordWrites() + ws1.wordWrites();
}

} // namespace

TieSimResult
TieSimulator::runLayer(const TtMatrixFxp &tt, const Matrix<int16_t> &x,
                       bool relu)
{
    const TtLayerConfig &layer = tt.config;
    layer.validate();
    TIE_CHECK_ARG(x.rows() == layer.inSize() && x.cols() >= 1,
                  "simulator input must be N x batch");
    const size_t batch = x.cols();

    WeightSram weights(cfg_.weight_sram_bytes, cfg_.n_mac);
    WorkingSram ws0(cfg_.working_sram_bytes, cfg_.n_pe, cfg_.n_pe);
    WorkingSram ws1(cfg_.working_sram_bytes, cfg_.n_pe, cfg_.n_pe);
    WorkingSram *src = &ws0;
    WorkingSram *dst = &ws1;
    PeArray pes(cfg_.n_pe, cfg_.n_mac);

    preloadInput(cfg_, layer, x, *src);
    ResidentInput in{layer.n.back(), layer.stageCols(layer.d())};

    SimStats stats;
    runStagesResident(cfg_, tt, relu, batch, weights, src, dst, pes, in,
                      stats);
    // Every non-stall, non-switch stage cycle issues the full array.
    for (auto &st : stats.stages) {
        st.layer_index = 0;
        const size_t busy = st.cycles - cfg_.stage_switch_cycles -
                            st.stall_cycles;
        st.mac_ops = busy * cfg_.macsTotal();
    }
    finalizeCounters(stats, pes, weights, ws0, ws1);
    traceSimLayer(stats, 0, cfg_.stage_switch_cycles);

    Matrix<int16_t> y =
        readoutResident(*src, in, layer.outSize(), batch);
    return {std::move(y), std::move(stats)};
}

TieSimulator::NetworkResult
TieSimulator::runNetwork(const std::vector<NetworkLayer> &net,
                         const Matrix<int16_t> &x)
{
    TIE_CHECK_ARG(!net.empty(), "empty network");
    for (size_t i = 0; i + 1 < net.size(); ++i) {
        TIE_CHECK_ARG(net[i].weights->config.outSize() ==
                      net[i + 1].weights->config.inSize(),
                      "layer ", i, " output size does not feed layer ",
                      i + 1);
        const FxpFormat &out =
            net[i].weights->stage_fmt.front().act_out;
        const FxpFormat &nxt =
            net[i + 1].weights->stage_fmt.back().act_in;
        TIE_CHECK_ARG(out.frac_bits == nxt.frac_bits &&
                      out.total_bits == nxt.total_bits,
                      "layer ", i, " activation format does not chain "
                      "into layer ", i + 1);
    }

    const size_t batch = x.cols();
    const TtLayerConfig &first = net.front().weights->config;
    TIE_CHECK_ARG(x.rows() == first.inSize(),
                  "network input must be N x batch");

    // The paper's deployment keeps every layer's cores on chip
    // simultaneously ("budgeted capacity ... is sufficient for most
    // TT-DNN models"): check the combined interleaved footprint.
    {
        size_t total_words = 0;
        for (const NetworkLayer &l : net) {
            const TtLayerConfig &c = l.weights->config;
            for (size_t h = 1; h <= c.d(); ++h) {
                const size_t blocks =
                    (c.coreRows(h) + cfg_.n_mac - 1) / cfg_.n_mac;
                total_words += blocks * c.coreCols(h) * cfg_.n_mac;
            }
        }
        TIE_CHECK_ARG(total_words * 2 <= cfg_.weight_sram_bytes,
                      "network needs ", total_words * 2,
                      " B of weight SRAM for all layers but only ",
                      cfg_.weight_sram_bytes, " B are available");
    }

    WeightSram weights(cfg_.weight_sram_bytes, cfg_.n_mac);
    WorkingSram ws0(cfg_.working_sram_bytes, cfg_.n_pe, cfg_.n_pe);
    WorkingSram ws1(cfg_.working_sram_bytes, cfg_.n_pe, cfg_.n_pe);
    WorkingSram *src = &ws0;
    WorkingSram *dst = &ws1;
    PeArray pes(cfg_.n_pe, cfg_.n_mac);

    preloadInput(cfg_, first, x, *src);
    ResidentInput in{first.n.back(), first.stageCols(first.d())};

    NetworkResult res;
    for (const NetworkLayer &l : net) {
        // Snapshot the global counters so per-layer deltas are exact.
        const size_t mac0 = pes.macOps();
        const size_t reg0 = pes.regWrites();
        const size_t wr0 = weights.wordReads();
        const size_t rd0 = ws0.wordReads() + ws1.wordReads();
        const size_t wt0 = ws0.wordWrites() + ws1.wordWrites();

        const size_t layer_index = res.per_layer.size();
        SimStats layer_stats;
        runStagesResident(cfg_, *l.weights, l.relu, batch, weights, src,
                          dst, pes, in, layer_stats);
        for (auto &st : layer_stats.stages) {
            st.layer_index = layer_index;
            const size_t busy = st.cycles - cfg_.stage_switch_cycles -
                                st.stall_cycles;
            st.mac_ops = busy * cfg_.macsTotal();
        }
        layer_stats.mac_ops = pes.macOps() - mac0;
        layer_stats.reg_writes = pes.regWrites() - reg0;
        layer_stats.weight_sram_reads = weights.wordReads() - wr0;
        layer_stats.working_sram_reads =
            ws0.wordReads() + ws1.wordReads() - rd0;
        layer_stats.working_sram_writes =
            ws0.wordWrites() + ws1.wordWrites() - wt0;
        traceSimLayer(layer_stats, layer_index,
                      cfg_.stage_switch_cycles);
        res.per_layer.push_back(layer_stats);
        res.total.cycles += layer_stats.cycles;
        res.total.stall_cycles += layer_stats.stall_cycles;
        res.total.stages.insert(res.total.stages.end(),
                                layer_stats.stages.begin(),
                                layer_stats.stages.end());
    }
    finalizeCounters(res.total, pes, weights, ws0, ws1);

    res.output = readoutResident(
        *src, in, net.back().weights->config.outSize(), batch);
    return res;
}

size_t
TieSimulator::analyticCycles(const TtLayerConfig &layer,
                             const TieArchConfig &cfg)
{
    size_t cycles = 0;
    for (size_t h = layer.d(); h >= 1; --h) {
        const size_t rblocks =
            (layer.coreRows(h) + cfg.n_mac - 1) / cfg.n_mac;
        const size_t cblocks =
            (layer.stageCols(h) + cfg.n_pe - 1) / cfg.n_pe;
        cycles += rblocks * cblocks * layer.coreCols(h);
        cycles += cfg.stage_switch_cycles;
    }
    return cycles;
}

SimStats
TieSimulator::analyticStats(const TtLayerConfig &layer,
                            const TieArchConfig &cfg)
{
    // Execute the real machinery on an all-zero layer: identical
    // control flow (and hence identical counters) at negligible cost.
    TtMatrixFxp zero;
    zero.config = layer;
    zero.stage_fmt.assign(layer.d(), MacFormat{});
    for (size_t h = 1; h <= layer.d(); ++h)
        zero.cores.emplace_back(layer.coreRows(h), layer.coreCols(h));
    Matrix<int16_t> x(layer.inSize(), 1);

    TieSimulator sim(cfg);
    return sim.runLayer(zero, x).stats;
}

} // namespace tie
