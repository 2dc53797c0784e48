/**
 * @file
 * Fixed-point arithmetic matching the TIE datapath (paper Table 5):
 * 16-bit quantisation, 16-bit multipliers, 24-bit accumulators.
 *
 * Both the functional reference kernels (tt_infer) and the
 * cycle-accurate simulator (arch/tie_sim) call the *same* functions
 * here, which is what makes the simulator bit-accurate by construction
 * and lets tests assert exact integer equality between the two.
 */

#ifndef TIE_QUANT_FXP_HH
#define TIE_QUANT_FXP_HH

#include <cstdint>
#include <vector>

#include "linalg/matrix.hh"

namespace tie {

/** Two's-complement fixed-point format: total bits and fraction bits. */
struct FxpFormat
{
    int total_bits = 16; ///< container width including sign
    int frac_bits = 8;   ///< binary point position

    double scale() const { return static_cast<double>(1u << frac_bits); }
    int64_t maxRaw() const { return (int64_t(1) << (total_bits - 1)) - 1; }
    int64_t minRaw() const { return -(int64_t(1) << (total_bits - 1)); }
};

/**
 * Saturate @p v into a signed @p bits-wide container. @p bits must be
 * in [1, 63]; anything else cannot be represented by the int64 shift
 * and is rejected as a user error.
 */
int64_t saturate(int64_t v, int bits);

/** Round-to-nearest quantisation of @p v with saturation. */
int32_t quantize(double v, const FxpFormat &fmt);

/** Inverse of quantize (exact for in-range raw values). */
double dequantize(int64_t raw, const FxpFormat &fmt);

/**
 * Pick the 16-bit format with the most fraction bits that still
 * represents magnitudes up to @p max_abs without saturation.
 */
FxpFormat chooseFormat(double max_abs, int total_bits = 16);

/**
 * Pick a format from observed activation samples: the smallest range
 * covering the given |value| percentile (1.0 = the max). Calibrating
 * on a representative batch instead of worst-case bounds buys extra
 * fraction bits — the standard post-training-quantisation flow.
 */
FxpFormat calibrateFormat(const MatrixF &samples,
                          double percentile = 1.0, int total_bits = 16);

/** Quantise every element of a float matrix into int16 raw values. */
Matrix<int16_t> quantizeMatrix(const MatrixF &m, const FxpFormat &fmt);

/** Dequantise an int16 raw matrix back to float. */
MatrixF dequantizeMatrix(const Matrix<int16_t> &m, const FxpFormat &fmt);

/**
 * Largest MacFormat::product_shift the MAC chain accepts: up to 30 the
 * rounded product w * x + 2^(shift-1) of any two int16 values fits in
 * int32; at 31 it overflows for w = x = -32768.
 */
inline constexpr int kMaxProductShift = 30;

/**
 * Datapath arithmetic configuration for one compact-scheme stage:
 * weight format, input activation format, accumulator width, the right
 * shift applied to every product before accumulation (aligns the 32-bit
 * product with the 24-bit accumulator), and the output format.
 */
struct MacFormat
{
    FxpFormat weight{16, 12};
    FxpFormat act_in{16, 8};
    int acc_bits = 24;
    int product_shift = 8;
    FxpFormat act_out{16, 8};

    /** Fraction bits carried by the accumulator. */
    int
    accFracBits() const
    {
        return weight.frac_bits + act_in.frac_bits - product_shift;
    }
};

/**
 * One multiply: 16b x 16b -> 32b product, pre-shifted (with rounding)
 * for 24-bit accumulation. This is exactly what one TIE MAC does per
 * cycle.
 */
int32_t macProduct(int16_t w, int16_t x, const MacFormat &fmt);

/** Saturating accumulate into a @p acc_bits-wide register. */
void accumulate(int64_t &acc, int32_t product, int acc_bits);

/** Requantise a finished accumulator value to the output format. */
int16_t requantizeAcc(int64_t acc, const MacFormat &fmt);

/**
 * Reference fixed-point GEMM out = w * x using the exact MAC semantics
 * above; w holds weights, x holds activations, out is in fmt.act_out.
 */
Matrix<int16_t> fxpMatmul(const Matrix<int16_t> &w,
                          const Matrix<int16_t> &x, const MacFormat &fmt);

/**
 * fxpMatmul on raw row-major buffers: out (m x n) = w (m x k) * x
 * (k x n). The allocation-free kernel behind fxpMatmul and the
 * fixed-point InferSession stages.
 */
void fxpMatmulRaw(size_t m, size_t k, size_t n, const int16_t *w,
                  const int16_t *x, const MacFormat &fmt, int16_t *out);

/** Fixed-point ReLU (negative raw values clamp to zero). */
Matrix<int16_t> fxpRelu(const Matrix<int16_t> &m);

} // namespace tie

#endif // TIE_QUANT_FXP_HH
