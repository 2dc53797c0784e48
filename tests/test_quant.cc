/**
 * @file
 * Tests for the 16-bit fixed-point datapath arithmetic (quantisation,
 * saturating 24-bit accumulation, fixed-point GEMM).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "quant/fxp.hh"
#include "tt/tt_matrix.hh"

namespace tie {
namespace {

TEST(Fxp, SaturateClampsToContainer)
{
    EXPECT_EQ(saturate(100, 8), 100);
    EXPECT_EQ(saturate(127, 8), 127);
    EXPECT_EQ(saturate(128, 8), 127);
    EXPECT_EQ(saturate(-128, 8), -128);
    EXPECT_EQ(saturate(-129, 8), -128);
    EXPECT_EQ(saturate(1 << 30, 24), (1 << 23) - 1);
}

TEST(Fxp, SaturateRejectsUnrepresentableWidths)
{
    // bits <= 0 and bits >= 64 would shift by a negative / full-width
    // amount (undefined behaviour); they must die, not wrap.
    EXPECT_EXIT(saturate(0, 0), ::testing::ExitedWithCode(1),
                "outside the representable range");
    EXPECT_EXIT(saturate(1, -3), ::testing::ExitedWithCode(1),
                "outside the representable range");
    EXPECT_EXIT(saturate(1, 64), ::testing::ExitedWithCode(1),
                "outside the representable range");
    // The boundary widths stay usable.
    EXPECT_EQ(saturate(5, 1), 0);
    EXPECT_EQ(saturate(-5, 1), -1);
    EXPECT_EQ(saturate(INT64_MAX, 63), (int64_t(1) << 62) - 1);
    EXPECT_EQ(saturate(INT64_MIN, 63), -(int64_t(1) << 62));
}

TEST(Fxp, QuantizeRoundTripExactForGridValues)
{
    FxpFormat fmt{16, 8};
    for (double v : {0.0, 1.0, -1.0, 0.5, -0.25, 100.0, -127.99609375}) {
        int32_t raw = quantize(v, fmt);
        EXPECT_DOUBLE_EQ(dequantize(raw, fmt), v) << v;
    }
}

TEST(Fxp, QuantizeRoundsToNearest)
{
    FxpFormat fmt{16, 8};
    // 1/512 is half an LSB: nearbyint uses banker's rounding to even.
    EXPECT_EQ(quantize(3.0 / 512.0, fmt), 2);
    EXPECT_EQ(quantize(2.4 / 256.0, fmt), 2);
    EXPECT_EQ(quantize(2.6 / 256.0, fmt), 3);
}

TEST(Fxp, QuantizeSaturates)
{
    FxpFormat fmt{16, 8};
    EXPECT_EQ(quantize(1000.0, fmt), 32767);
    EXPECT_EQ(quantize(-1000.0, fmt), -32768);
}

TEST(Fxp, ChooseFormatCoversMagnitude)
{
    for (double mx : {0.3, 0.9, 1.5, 7.0, 100.0, 2000.0}) {
        FxpFormat fmt = chooseFormat(mx);
        // The format must represent +-mx without saturation.
        EXPECT_GT(dequantize(fmt.maxRaw(), fmt), mx) << mx;
        // And shouldn't waste more than one integer bit.
        if (fmt.frac_bits < 15) {
            EXPECT_LE(dequantize(fmt.maxRaw(), fmt), 2.0 * mx + 1.0) << mx;
        }
    }
}

TEST(Fxp, QuantizeDequantizeMatrixErrorBounded)
{
    Rng rng(1);
    MatrixF m(8, 8);
    m.setUniform(rng, -2.0, 2.0);
    FxpFormat fmt = chooseFormat(2.0);
    MatrixF back = dequantizeMatrix(quantizeMatrix(m, fmt), fmt);
    const double lsb = 1.0 / fmt.scale();
    EXPECT_LE(maxAbsDiff(m, back), 0.5 * lsb + 1e-9);
}

TEST(Fxp, MacProductMatchesScaledMultiply)
{
    MacFormat fmt;
    fmt.weight = {16, 12};
    fmt.act_in = {16, 8};
    fmt.product_shift = 8;
    // w = 0.5 in Q12 is 2048; x = 2.0 in Q8 is 512.
    int32_t p = macProduct(2048, 512, fmt);
    // Product raw = 1048576, shifted by 8 -> 4096, acc frac = 12.
    EXPECT_EQ(p, 4096);
    EXPECT_DOUBLE_EQ(dequantize(p, FxpFormat{32, fmt.accFracBits()}), 1.0);
}

TEST(Fxp, MacProductExactAtTheLargestShift)
{
    // kMaxProductShift is the last shift whose rounded product stays in
    // int32 for every operand pair, including (-32768)^2 = 2^30.
    ASSERT_EQ(kMaxProductShift, 30);
    MacFormat fmt;
    fmt.product_shift = kMaxProductShift;
    const int16_t ends[] = {-32768, -32767, -1, 0, 1, 32767};
    for (int16_t w : ends) {
        for (int16_t x : ends) {
            const int64_t exact =
                (int64_t(w) * x + (int64_t(1) << 29)) >> 30;
            EXPECT_EQ(macProduct(w, x, fmt), exact) << w << "*" << x;
        }
    }
    EXPECT_EQ(macProduct(-32768, -32768, fmt), 1);
}

TEST(Fxp, QuantizeRejectsProductShiftOutOfRange)
{
    Rng rng(3);
    TtLayerConfig cfg;
    cfg.m = {2, 2};
    cfg.n = {2, 2};
    cfg.r = {1, 2, 1};
    const TtMatrix tt = TtMatrix::random(cfg, rng);
    EXPECT_EXIT(TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8},
                                          kMaxProductShift + 1),
                ::testing::ExitedWithCode(1), "product_shift 31");
    std::vector<MacFormat> fmts(2);
    fmts[1].product_shift = -1;
    EXPECT_EXIT(TtMatrixFxp::quantize(tt, fmts),
                ::testing::ExitedWithCode(1), "product_shift -1");
    fmts[1].product_shift = kMaxProductShift;
    EXPECT_EQ(TtMatrixFxp::quantize(tt, fmts).stage_fmt[1].product_shift,
              kMaxProductShift);
}

TEST(Fxp, AccumulateSaturatesAt24Bits)
{
    int64_t acc = (1 << 23) - 10;
    accumulate(acc, 100, 24);
    EXPECT_EQ(acc, (1 << 23) - 1);
    acc = -(1 << 23) + 10;
    accumulate(acc, -100, 24);
    EXPECT_EQ(acc, -(1 << 23));
}

TEST(Fxp, RequantizeAccRoundsAndSaturates)
{
    MacFormat fmt;
    fmt.weight = {16, 12};
    fmt.act_in = {16, 8};
    fmt.product_shift = 8;
    fmt.act_out = {16, 8};
    // acc frac = 12, out frac = 8 -> shift right by 4.
    EXPECT_EQ(requantizeAcc(16, fmt), 1);
    EXPECT_EQ(requantizeAcc(7, fmt), 0);
    EXPECT_EQ(requantizeAcc(8, fmt), 1); // round up at half
    EXPECT_EQ(requantizeAcc(int64_t(1) << 23, fmt), 32767);
}

TEST(Fxp, MatmulMatchesFloatWithinTolerance)
{
    Rng rng(7);
    MatrixF wf(6, 10), xf(10, 4);
    wf.setUniform(rng, -1.0, 1.0);
    xf.setUniform(rng, -1.0, 1.0);

    MacFormat fmt;
    fmt.weight = chooseFormat(1.0);
    fmt.act_in = chooseFormat(1.0);
    fmt.act_out = chooseFormat(16.0);
    fmt.product_shift = 8;

    auto wq = quantizeMatrix(wf, fmt.weight);
    auto xq = quantizeMatrix(xf, fmt.act_in);
    auto yq = fxpMatmul(wq, xq, fmt);
    MatrixF y = dequantizeMatrix(yq, fmt.act_out);
    MatrixF yref = matmul(wf, xf);

    // Error budget: quantisation + product shift + requantisation.
    EXPECT_LT(maxAbsDiff(y, yref), 0.05);
}

TEST(Fxp, MatmulShapeMismatchIsFatal)
{
    Matrix<int16_t> a(2, 3), b(2, 2);
    MacFormat fmt;
    EXPECT_EXIT(fxpMatmul(a, b, fmt), ::testing::ExitedWithCode(1),
                "shape mismatch");
}

TEST(Fxp, ReluClampsNegativeRawValues)
{
    Matrix<int16_t> m(1, 4);
    m(0, 0) = -5;
    m(0, 1) = 0;
    m(0, 2) = 7;
    m(0, 3) = -32768;
    auto r = fxpRelu(m);
    EXPECT_EQ(r(0, 0), 0);
    EXPECT_EQ(r(0, 1), 0);
    EXPECT_EQ(r(0, 2), 7);
    EXPECT_EQ(r(0, 3), 0);
}

TEST(Fxp, AccumulationOrderInvariantWithoutSaturation)
{
    // With no saturation events, fixed-point accumulation is exact
    // integer math: any order gives the same result.
    Rng rng(9);
    MacFormat fmt;
    fmt.product_shift = 0;
    std::vector<int16_t> w(32), x(32);
    for (auto &v : w)
        v = static_cast<int16_t>(rng.intIn(-100, 100));
    for (auto &v : x)
        v = static_cast<int16_t>(rng.intIn(-100, 100));

    int64_t fwd = 0, rev = 0;
    for (size_t i = 0; i < w.size(); ++i)
        accumulate(fwd, macProduct(w[i], x[i], fmt), 24);
    for (size_t i = w.size(); i-- > 0;)
        accumulate(rev, macProduct(w[i], x[i], fmt), 24);
    EXPECT_EQ(fwd, rev);
}

} // namespace
} // namespace tie
