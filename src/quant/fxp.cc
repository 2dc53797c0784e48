#include "quant/fxp.hh"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hh"
#include "linalg/gemm.hh"
#include "linalg/simd.hh"
#include "quant/fxp_simd.hh"

namespace tie {

int64_t
saturate(int64_t v, int bits)
{
    TIE_CHECK_ARG(bits >= 1 && bits <= 63,
                  "saturate container width ", bits,
                  " outside the representable range [1, 63]");
    const int64_t hi = (int64_t(1) << (bits - 1)) - 1;
    const int64_t lo = -(int64_t(1) << (bits - 1));
    if (v > hi)
        return hi;
    if (v < lo)
        return lo;
    return v;
}

int32_t
quantize(double v, const FxpFormat &fmt)
{
    const double scaled = v * fmt.scale();
    const double rounded = std::nearbyint(scaled);
    return static_cast<int32_t>(saturate(
        static_cast<int64_t>(rounded), fmt.total_bits));
}

double
dequantize(int64_t raw, const FxpFormat &fmt)
{
    return static_cast<double>(raw) / fmt.scale();
}

FxpFormat
chooseFormat(double max_abs, int total_bits)
{
    // Integer bits needed (excluding sign) so that max_abs fits.
    int int_bits = 0;
    double cap = 1.0;
    while (cap <= max_abs && int_bits < total_bits - 1) {
        cap *= 2.0;
        ++int_bits;
    }
    FxpFormat fmt;
    fmt.total_bits = total_bits;
    fmt.frac_bits = total_bits - 1 - int_bits;
    return fmt;
}

FxpFormat
calibrateFormat(const MatrixF &samples, double percentile,
                int total_bits)
{
    TIE_CHECK_ARG(percentile > 0.0 && percentile <= 1.0,
                  "percentile must be in (0, 1]");
    TIE_CHECK_ARG(samples.size() > 0, "cannot calibrate on no samples");

    std::vector<float> mags(samples.size());
    for (size_t i = 0; i < samples.size(); ++i)
        mags[i] = std::abs(samples.flat()[i]);
    const size_t k = std::min(
        samples.size() - 1,
        static_cast<size_t>(percentile * (samples.size() - 1) + 0.5));
    std::nth_element(mags.begin(), mags.begin() + k, mags.end());
    return chooseFormat(mags[k], total_bits);
}

Matrix<int16_t>
quantizeMatrix(const MatrixF &m, const FxpFormat &fmt)
{
    Matrix<int16_t> out(m.rows(), m.cols());
    for (size_t i = 0; i < m.size(); ++i)
        out.flat()[i] = static_cast<int16_t>(quantize(m.flat()[i], fmt));
    return out;
}

MatrixF
dequantizeMatrix(const Matrix<int16_t> &m, const FxpFormat &fmt)
{
    MatrixF out(m.rows(), m.cols());
    for (size_t i = 0; i < m.size(); ++i)
        out.flat()[i] = static_cast<float>(dequantize(m.flat()[i], fmt));
    return out;
}

int32_t
macProduct(int16_t w, int16_t x, const MacFormat &fmt)
{
    const int32_t product = static_cast<int32_t>(w) * static_cast<int32_t>(x);
    if (fmt.product_shift <= 0)
        return product;
    // Round-to-nearest on the discarded bits, as a hardware rounding
    // adder stage would.
    const int32_t bias = int32_t(1) << (fmt.product_shift - 1);
    return (product + bias) >> fmt.product_shift;
}

void
accumulate(int64_t &acc, int32_t product, int acc_bits)
{
    acc = saturate(acc + product, acc_bits);
}

int16_t
requantizeAcc(int64_t acc, const MacFormat &fmt)
{
    const int shift = fmt.accFracBits() - fmt.act_out.frac_bits;
    int64_t v = acc;
    if (shift > 0) {
        const int64_t bias = int64_t(1) << (shift - 1);
        v = (v + bias) >> shift;
    } else if (shift < 0) {
        v <<= -shift;
    }
    return static_cast<int16_t>(saturate(v, fmt.act_out.total_bits));
}

void
fxpMatmulRaw(size_t m, size_t k, size_t n, const int16_t *w,
             const int16_t *x, const MacFormat &fmt, int16_t *out)
{
    // Each output element owns a full sequential MAC chain (the
    // saturating accumulator makes the k order semantically
    // significant), so the work is distributed over disjoint blocks of
    // the larger output axis — exact and deterministic for any thread
    // count. The TT stages are short and wide, hence the column split.
    // Within a block the chain runs in SIMD lanes across columns
    // (quant/fxp_simd.hh), bit-identical to the scalar chain.
    const simd::Isa isa = simd::activeIsa();
    if (obs::enabled())
        gemm::KernelStats::get().simd_isa.set(
            static_cast<int64_t>(isa));
    auto block = [&](size_t i0, size_t i1, size_t j0, size_t j1) {
        fxpBlock(isa, k, n, n, w, x, fmt, out, i0, i1, j0, j1);
    };
    if (m * k * n < gemm::kParallelMinWork) {
        block(0, m, 0, n);
    } else if (m >= n) {
        parallelFor(0, m, gemm::kRowBlock, [&](size_t i0, size_t i1) {
            block(i0, i1, 0, n);
        });
    } else {
        parallelFor(0, n, gemm::kColBlock, [&](size_t j0, size_t j1) {
            block(0, m, j0, j1);
        });
    }
}

Matrix<int16_t>
fxpMatmul(const Matrix<int16_t> &w, const Matrix<int16_t> &x,
          const MacFormat &fmt)
{
    TIE_CHECK_ARG(w.cols() == x.rows(), "fxpMatmul shape mismatch: ",
                  w.rows(), "x", w.cols(), " * ", x.rows(), "x", x.cols());
    Matrix<int16_t> out(w.rows(), x.cols());
    fxpMatmulRaw(w.rows(), w.cols(), x.cols(), w.data(), x.data(), fmt,
                 out.data());
    return out;
}

Matrix<int16_t>
fxpRelu(const Matrix<int16_t> &m)
{
    Matrix<int16_t> out = m;
    for (auto &v : out.flat())
        v = v < 0 ? int16_t(0) : v;
    return out;
}

} // namespace tie
