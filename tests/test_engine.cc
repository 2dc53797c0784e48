/**
 * @file
 * Tests for the TieEngine facade and the centralised paper workloads:
 * multi-layer simulation chains bit-exactly, functional inference
 * matches the simulated fixed-point path within quantisation error,
 * and the workload definitions reproduce the paper's compression
 * numbers (Tables 1-4).
 */

#include <gtest/gtest.h>

#include "core/tie_engine.hh"
#include "core/workloads.hh"
#include "tt/cost_model.hh"

namespace tie {
namespace {

TEST(TieEngine, TwoLayerSimulationMatchesFunctionalChain)
{
    Rng rng(1);
    TtLayerConfig l1;
    l1.m = {4, 4}; // 16 outputs
    l1.n = {4, 6}; // 24 inputs
    l1.r = {1, 3, 1};
    TtLayerConfig l2;
    l2.m = {2, 3}; // 6 outputs
    l2.n = {4, 4}; // 16 inputs
    l2.r = {1, 2, 1};

    TieEngine engine;
    TtMatrix m1 = TtMatrix::random(l1, rng);
    TtMatrix m2 = TtMatrix::random(l2, rng);
    engine.addLayer(m1, /*relu=*/true);
    engine.addLayer(m2, /*relu=*/false);
    ASSERT_EQ(engine.layerCount(), 2u);

    MatrixF xf(l1.inSize(), 1);
    xf.setUniform(rng, -1, 1);
    const FxpFormat act{16, 8};
    Matrix<int16_t> xq = quantizeMatrix(xf, act);

    EngineRunReport rep = engine.simulate(xq);

    // Fixed-point reference: layer 1 + ReLU + layer 2, all through the
    // shared quant primitives.
    Matrix<int16_t> v = compactInferFxp(engine.layer(0), xq);
    v = fxpRelu(v);
    v = compactInferFxp(engine.layer(1), v);
    ASSERT_EQ(rep.output.rows(), v.rows());
    for (size_t i = 0; i < v.rows(); ++i)
        EXPECT_EQ(rep.output(i, 0), v(i, 0));

    // Float path agrees within quantisation error.
    MatrixD y_float = engine.infer(xf.cast<double>());
    MatrixF y_sim = dequantizeMatrix(rep.output, act);
    EXPECT_LT(maxAbsDiff(y_sim.cast<double>(), y_float), 0.1);
}

TEST(TieEngine, BatchedSimulationMatchesPerSample)
{
    Rng rng(9);
    TtLayerConfig cfg = TtLayerConfig::uniform(3, 2, 3, 2);
    TieEngine engine;
    engine.addLayer(TtMatrix::random(cfg, rng), true);
    TtLayerConfig head; // 8 -> 4
    head.m = {2, 2};
    head.n = {2, 4};
    head.r = {1, 2, 1};
    engine.addLayer(TtMatrix::random(head, rng), false);

    MatrixF xf(cfg.inSize(), 3);
    xf.setUniform(rng, -1, 1);
    const FxpFormat act{16, 8};
    Matrix<int16_t> xq = quantizeMatrix(xf, act);

    EngineRunReport batched = engine.simulate(xq);
    ASSERT_EQ(batched.output.cols(), 3u);
    for (size_t b = 0; b < 3; ++b) {
        Matrix<int16_t> one(cfg.inSize(), 1);
        for (size_t i = 0; i < cfg.inSize(); ++i)
            one(i, 0) = xq(i, b);
        EngineRunReport single = engine.simulate(one);
        for (size_t i = 0; i < single.output.rows(); ++i)
            EXPECT_EQ(batched.output(i, b), single.output(i, 0));
    }
}

TEST(TieEngine, ReportAggregatesPerLayerStats)
{
    Rng rng(2);
    TtLayerConfig cfg = TtLayerConfig::uniform(3, 2, 2, 2);
    TieEngine engine;
    engine.addLayer(TtMatrix::random(cfg, rng));
    engine.addLayer(TtMatrix::random(cfg, rng));

    Matrix<int16_t> x(cfg.inSize(), 1);
    EngineRunReport rep = engine.simulate(x);
    ASSERT_EQ(rep.per_layer.size(), 2u);
    EXPECT_GT(rep.stats.cycles, 0u);
    EXPECT_NEAR(rep.perf.latency_us,
                static_cast<double>(rep.stats.cycles) /
                    engine.archConfig().freq_mhz,
                1e-9);
    EXPECT_GT(rep.perf.effective_gops, 0.0);
}

TEST(TieEngine, AnalyticLatencyMatchesSimulatedStallFreeRun)
{
    Rng rng(3);
    TtLayerConfig cfg = TtLayerConfig::uniform(4, 4, 4, 4);
    TieEngine engine;
    engine.addLayer(TtMatrix::random(cfg, rng));
    Matrix<int16_t> x(cfg.inSize(), 1);
    EngineRunReport rep = engine.simulate(x);
    EXPECT_EQ(rep.stats.stall_cycles, 0u);
    EXPECT_NEAR(engine.analyticLatencyUs(), rep.perf.latency_us, 1e-9);
}

TEST(TieEngine, MismatchedChainedFormatsAreFatal)
{
    Rng rng(4);
    TtLayerConfig cfg = TtLayerConfig::uniform(2, 2, 2, 2);
    TieEngine engine;
    engine.addLayer(TtMatrix::random(cfg, rng), true, FxpFormat{16, 8});
    TtMatrixFxp bad = TtMatrixFxp::quantizeAuto(
        TtMatrix::random(cfg, rng), FxpFormat{16, 12});
    EXPECT_EXIT(engine.addLayer(std::move(bad), true),
                ::testing::ExitedWithCode(1), "chain");
}

TEST(TieEngine, DenseEquivalentOpsSumAcrossLayers)
{
    Rng rng(5);
    TtLayerConfig cfg = TtLayerConfig::uniform(2, 2, 3, 2);
    TieEngine engine;
    engine.addLayer(TtMatrix::random(cfg, rng));
    engine.addLayer(TtMatrix::random(
        TtLayerConfig::uniform(2, 3, 2, 2), rng));
    EXPECT_DOUBLE_EQ(engine.denseEquivalentOps(),
                     2.0 * (4 * 9) + 2.0 * (9 * 4));
}

TEST(TieEngine, InferSurvivesAddLayerAndMove)
{
    // Each float session views its layer's cores: growing the layer
    // stack (which reallocates the engine's layer storage) and moving
    // the engine must leave every session reading live weights.
    Rng rng(6);
    const TtLayerConfig cfg = TtLayerConfig::uniform(2, 4, 4, 3);
    MatrixD x(cfg.inSize(), 3);
    x.setUniform(rng, -1, 1);
    std::vector<TtMatrix> layers;
    auto reference = [&] {
        MatrixD v = x;
        for (const TtMatrix &tt : layers) {
            v = compactInfer(tt, v);
            for (double &e : v.flat())
                e = e > 0.0 ? e : 0.0;
        }
        return v;
    };

    TieEngine engine;
    layers.push_back(TtMatrix::random(cfg, rng));
    engine.addLayer(layers.back());
    EXPECT_TRUE(engine.infer(x) == reference());

    // Nine more layers reallocate the layer storage several times.
    for (int i = 0; i < 9; ++i) {
        layers.push_back(TtMatrix::random(cfg, rng));
        engine.addLayer(layers.back());
    }
    EXPECT_TRUE(engine.infer(x) == reference()) << "after addLayer";

    TieEngine moved = std::move(engine);
    EXPECT_TRUE(moved.infer(x) == reference()) << "after a move";
}

TEST(Workloads, Table4ConfigsMatchPaper)
{
    auto bench = workloads::table4Benchmarks();
    ASSERT_EQ(bench.size(), 4u);
    EXPECT_NEAR(bench[0].config.compressionRatio(), 50972.0, 1.0);
    EXPECT_NEAR(bench[1].config.compressionRatio(), 14564.0, 1.0);
    EXPECT_NEAR(bench[2].config.compressionRatio(), 4954.0, 1.0);
    EXPECT_NEAR(bench[3].config.compressionRatio(), 4608.0, 0.5);
}

TEST(Workloads, Table1FcCompressionRatios)
{
    // Table 1: CR for FC layers 30.9x, overall network 7.4x.
    auto fcs = workloads::fcDominatedCnnLayers();
    auto budget = workloads::vgg16Params();

    size_t tt_fc = 0;
    for (const auto &cfg : fcs)
        tt_fc += cfg.ttParamCount();

    const double fc_dense =
        double(budget.fc6 + budget.fc7 + budget.fc8);
    const double fc_tt = double(tt_fc + budget.fc8); // FC8 stays dense
    EXPECT_NEAR(fc_dense / fc_tt, 30.9, 1.0);

    const double total_dense = fc_dense + double(budget.conv_params);
    const double total_tt = fc_tt + double(budget.conv_params);
    EXPECT_NEAR(total_dense / total_tt, 7.4, 0.25);
}

TEST(Workloads, Table2ConvCompressionRatios)
{
    // Table 2: CR for CONV layers 3.3x, overall network 3.27x.
    auto layers = workloads::convDominatedCnnLayers();
    ASSERT_EQ(layers.size(), 5u);

    size_t dense = 0, tt = 0;
    for (const auto &cfg : layers) {
        dense += cfg.denseParamCount();
        tt += cfg.ttParamCount();
    }
    EXPECT_NEAR(double(dense) / double(tt), 3.3, 0.05);

    const double other = double(workloads::convDominatedCnnOtherParams());
    EXPECT_NEAR((dense + other) / (tt + other), 3.27, 0.05);
}

TEST(Workloads, Table3RnnCompressionIsFourOrdersOfMagnitude)
{
    // Table 3 cites [77]'s 15283x / 11683x for the input-to-hidden
    // maps; our reconstruction of their setting lands in the same
    // regime (10^4x) — see EXPERIMENTS.md for the delta discussion.
    for (size_t gates : {4u, 3u}) {
        TtLayerConfig cfg = workloads::rnnInputToHidden(gates);
        EXPECT_GT(cfg.compressionRatio(), 8.0e3) << gates;
        EXPECT_LT(cfg.compressionRatio(), 2.0e4) << gates;
    }
}

TEST(Workloads, EieWorkloadsMatchVggGeometry)
{
    auto w = workloads::eieWorkloads();
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w[0].rows, 4096u);
    EXPECT_EQ(w[0].cols, 25088u);
    EXPECT_EQ(w[1].cols, 4096u);
    for (const auto &x : w) {
        EXPECT_GT(x.weight_density, 0.0);
        EXPECT_LT(x.weight_density, 0.2);
    }
}

TEST(Workloads, VggTtConvFactorisationsAreConsistent)
{
    auto layers = workloads::vgg16TtConvLayers();
    auto convs = vgg16ConvLayers();
    ASSERT_EQ(layers.size(), convs.size());
    for (size_t i = 0; i < layers.size(); ++i) {
        EXPECT_EQ(layers[i].config.outSize(), convs[i].c_out) << i;
        EXPECT_EQ(layers[i].config.inSize(),
                  convs[i].f * convs[i].f * convs[i].c_in)
            << i;
        layers[i].config.validate();
    }
}

TEST(Workloads, VggTtConvLayersFitWeightSram)
{
    // Every TT conv layer must fit the 16 KB weight SRAM with the
    // interleaved (padded) layout the hardware uses.
    TieArchConfig arch;
    for (const auto &l : workloads::vgg16TtConvLayers()) {
        size_t words = 0;
        for (size_t h = 1; h <= l.config.d(); ++h) {
            const size_t rows = l.config.coreRows(h);
            const size_t blocks = (rows + arch.n_mac - 1) / arch.n_mac;
            words += blocks * l.config.coreCols(h) * arch.n_mac;
        }
        EXPECT_LE(words * 2, arch.weight_sram_bytes)
            << l.config.toString();
    }
}

TEST(AnalyticBatchedCycles, ReducesToSingleVectorCase)
{
    TtLayerConfig cfg = TtLayerConfig::uniform(3, 4, 4, 4);
    TieArchConfig arch;
    EXPECT_EQ(analyticBatchedCycles(cfg, 1, arch),
              TieSimulator::analyticCycles(cfg, arch));
    // Large batches amortise: cycles scale ~linearly in batch.
    const size_t c1 = analyticBatchedCycles(cfg, 64, arch);
    const size_t c2 = analyticBatchedCycles(cfg, 128, arch);
    EXPECT_NEAR(double(c2) / double(c1), 2.0, 0.1);
}

} // namespace
} // namespace tie
