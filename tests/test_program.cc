/**
 * @file
 * Tests for the controller's layer program and arithmetic address
 * generator: descriptor compilation, exact equivalence with the
 * TransformSpec permutation table across randomised configurations,
 * and the hardware-realism property that per-layer control state is a
 * handful of scalars.
 */

#include <gtest/gtest.h>

#include "tt/stage_program.hh"
#include "core/workloads.hh"
#include "tt/tt_transform.hh"

namespace tie {
namespace {

TtLayerConfig
randomConfig(Rng &rng)
{
    const size_t d = static_cast<size_t>(rng.intIn(1, 4));
    TtLayerConfig cfg;
    cfg.m.resize(d);
    cfg.n.resize(d);
    cfg.r.assign(d + 1, 1);
    for (size_t k = 0; k < d; ++k) {
        cfg.m[k] = static_cast<size_t>(rng.intIn(1, 5));
        cfg.n[k] = static_cast<size_t>(rng.intIn(1, 5));
    }
    for (size_t k = 1; k < d; ++k)
        cfg.r[k] = static_cast<size_t>(rng.intIn(1, 4));
    cfg.validate();
    return cfg;
}

TEST(LayerProgram, CompilesStageGeometry)
{
    TtLayerConfig fc6 = workloads::vggFc6();
    LayerProgram prog = LayerProgram::compile(fc6, true);
    ASSERT_EQ(prog.stages.size(), 6u);

    // Stages run h = d .. 1.
    EXPECT_EQ(prog.stages.front().core_index, 6u);
    EXPECT_EQ(prog.stages.back().core_index, 1u);
    EXPECT_TRUE(prog.stages.front().identity);
    for (size_t i = 1; i < prog.stages.size(); ++i)
        EXPECT_FALSE(prog.stages[i].identity);

    // Geometry matches the shape math.
    for (const auto &d : prog.stages) {
        EXPECT_EQ(d.rows, fc6.coreRows(d.core_index));
        EXPECT_EQ(d.inner, fc6.coreCols(d.core_index));
        EXPECT_EQ(d.cols, fc6.stageCols(d.core_index));
    }

    // ReLU only at the final stage.
    EXPECT_FALSE(prog.stages.front().relu);
    EXPECT_TRUE(prog.stages.back().relu);
}

TEST(LayerProgram, ControlStateIsTiny)
{
    // The controller's whole per-layer state: d descriptors of a few
    // words each — no tables proportional to tensor sizes.
    LayerProgram prog = LayerProgram::compile(workloads::vggFc6());
    EXPECT_LE(prog.stages.size() * sizeof(StageDescriptor), 512u);
}

class AddressGenFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(AddressGenFuzz, MatchesTransformSpecEverywhere)
{
    Rng rng(40000 + GetParam());
    TtLayerConfig cfg = randomConfig(rng);
    LayerProgram prog = LayerProgram::compile(cfg);

    for (const StageDescriptor &desc : prog.stages) {
        if (desc.identity)
            continue;
        const size_t h = desc.core_index;
        // The operand of stage h is transform_{h+1}(V_{h+1}); the spec
        // maps operand (k, q) -> source linear offset.
        TransformSpec spec = makeStageTransform(cfg, h + 1);
        ASSERT_EQ(spec.rows_out, desc.inner);
        ASSERT_EQ(spec.cols_out, desc.cols);
        for (uint32_t k = 0; k < desc.inner; ++k) {
            for (uint32_t q = 0; q < desc.cols; ++q) {
                const size_t lin =
                    spec.src_of_dst[k * spec.cols_out + q];
                auto [sp, sq] = operandSource(desc, k, q);
                EXPECT_EQ(sp, lin / spec.cols_in)
                    << cfg.toString() << " h=" << h;
                EXPECT_EQ(sq, lin % spec.cols_in)
                    << cfg.toString() << " h=" << h;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AddressGenFuzz, ::testing::Range(0, 20));

TEST(AddressGen, PaperBenchmarksExactOnSpotChecks)
{
    for (const auto &b : workloads::table4Benchmarks()) {
        LayerProgram prog = LayerProgram::compile(b.config);
        Rng rng(7);
        for (const StageDescriptor &desc : prog.stages) {
            if (desc.identity)
                continue;
            TransformSpec spec =
                makeStageTransform(b.config, desc.core_index + 1);
            for (int trial = 0; trial < 200; ++trial) {
                const uint32_t k = static_cast<uint32_t>(
                    rng.intIn(0, desc.inner - 1));
                const uint32_t q = static_cast<uint32_t>(
                    rng.intIn(0, desc.cols - 1));
                const size_t lin =
                    spec.src_of_dst[k * spec.cols_out + q];
                auto [sp, sq] = operandSource(desc, k, q);
                ASSERT_EQ(sp, lin / spec.cols_in) << b.name;
                ASSERT_EQ(sq, lin % spec.cols_in) << b.name;
            }
        }
    }
}

/**
 * Both address generators against the permutation table, stage by
 * stage: operandSource of stage h-1 reads what makeStageTransform(h)
 * says, operandDest of stage h writes it back to the same operand
 * element (also for a later batch block), and every V_h element lands
 * where the table takes it from — so the two generators are inverse
 * bijections and equal the table.
 */
void
checkGeneratorsAgainstTable(const TtLayerConfig &cfg)
{
    const LayerProgram prog = LayerProgram::compile(cfg);
    const size_t d = cfg.d();
    const StageDescriptor &first = prog.stages.back();
    ASSERT_TRUE(first.store_identity) << cfg.toString();
    EXPECT_EQ(operandDest(first, 0, 5),
              (std::pair<size_t, size_t>(0, 5)));
    for (size_t h = 2; h <= d; ++h) {
        const StageDescriptor &wr = prog.stages[d - h];     // stage h
        const StageDescriptor &rd = prog.stages[d - h + 1]; // stage h-1
        ASSERT_FALSE(wr.store_identity);
        const TransformSpec spec = makeStageTransform(cfg, h);
        ASSERT_EQ(spec.rows_in, wr.rows);
        ASSERT_EQ(spec.cols_in, wr.cols);
        ASSERT_EQ(spec.cols_out, wr.dst_cols);
        const size_t b = 2;
        for (uint32_t k = 0; k < rd.inner; ++k) {
            for (uint32_t q = 0; q < rd.cols; ++q) {
                const size_t lin = spec.src_of_dst[k * spec.cols_out + q];
                const auto [sp, sq] = operandSource(rd, k, q);
                ASSERT_EQ(sp, lin / spec.cols_in) << cfg.toString();
                ASSERT_EQ(sq, lin % spec.cols_in) << cfg.toString();
                const auto back = operandDest(wr, sp, sq);
                ASSERT_EQ(back.first, k) << cfg.toString() << " h=" << h;
                ASSERT_EQ(back.second, q) << cfg.toString() << " h=" << h;
                const auto later = operandDest(wr, sp, b * wr.cols + sq);
                ASSERT_EQ(later.first, k);
                ASSERT_EQ(later.second, b * wr.dst_cols + q);
            }
        }
        for (size_t p = 0; p < wr.rows; ++p) {
            for (size_t q = 0; q < wr.cols; ++q) {
                const auto [dp, dq] = operandDest(wr, p, q);
                ASSERT_EQ(spec.src_of_dst[dp * spec.cols_out + dq],
                          p * spec.cols_in + q)
                    << cfg.toString() << " h=" << h;
            }
        }
    }
}

TEST(OperandDest, InvertsSourceAndMatchesTableOnPaperLayers)
{
    for (const TtLayerConfig &cfg :
         {workloads::vggFc6(), workloads::vggFc7(),
          workloads::lstmUcf11()})
        checkGeneratorsAgainstTable(cfg);
}

TEST(OperandDest, InvertsSourceAndMatchesTableOnFuzzConfigs)
{
    // test_fuzz's generator and transform-sweep seeds.
    for (int i = 0; i < 25; ++i) {
        Rng rng(20000 + i);
        checkGeneratorsAgainstTable(randomConfig(rng));
    }
}

TEST(AddressGen, OutOfRangeIsABug)
{
    LayerProgram prog = LayerProgram::compile(workloads::vggFc7());
    const StageDescriptor &d = prog.stages[1];
    EXPECT_DEATH(operandSource(d, d.inner, 0), "out of stage range");
    EXPECT_DEATH(operandSource(d, 0, d.cols), "out of stage range");
}

} // namespace
} // namespace tie
