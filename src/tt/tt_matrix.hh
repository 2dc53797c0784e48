/**
 * @file
 * A weight matrix stored in TT format: the configuration plus the d
 * tensor cores (paper Sec. 2.2). This is the object the inference
 * schemes, the NN layers and the TIE simulator all operate on.
 */

#ifndef TIE_TT_TT_MATRIX_HH
#define TIE_TT_TT_MATRIX_HH

#include <vector>

#include "quant/fxp.hh"
#include "tt/tt_core.hh"
#include "tt/tt_shape.hh"

namespace tie {

/** Weight matrix in TT format. */
class TtMatrix
{
  public:
    TtMatrix() = default;

    /** Zero-initialised cores of the configured shapes. */
    explicit TtMatrix(TtLayerConfig config);

    const TtLayerConfig &config() const { return config_; }
    size_t d() const { return config_.d(); }

    /** Core G_h, 1-based h to match the paper's notation. */
    const TtCore &core(size_t h) const;
    TtCore &core(size_t h);

    /** Total TT parameter count. */
    size_t paramCount() const;

    /**
     * Reconstruct the dense M x N weight matrix. Element
     * (yFlatIndex(i), xFlatIndex(j)) = G_1[i1,j1] ... G_d[id,jd]
     * (paper Eqn. 2). Exponential in nothing — O(M N d r^2) — but only
     * meant for small shapes and tests.
     */
    MatrixD toDense() const;

    /**
     * Random TT matrix (train-from-scratch style init). Each core gets
     * i.i.d. normals scaled so the reconstructed matrix has roughly
     * unit-variance-preserving magnitude.
     */
    static TtMatrix random(const TtLayerConfig &config, Rng &rng);

  private:
    TtLayerConfig config_;
    std::vector<TtCore> cores_;
};

/**
 * Quantised TT matrix for the fixed-point datapath: int16 unfolded
 * cores plus the per-stage MAC format used when multiplying them.
 */
struct TtMatrixFxp
{
    TtLayerConfig config;
    std::vector<Matrix<int16_t>> cores; ///< unfolded, stage order 1..d
    std::vector<MacFormat> stage_fmt;   ///< arithmetic format per stage

    /**
     * Quantise a float-valued TT matrix with the given formats; dies
     * on a product_shift outside [0, kMaxProductShift].
     */
    static TtMatrixFxp quantize(const TtMatrix &tt,
                                const std::vector<MacFormat> &fmts);

    /**
     * Convenience: choose per-stage weight formats from each core's
     * max |value| and a shared activation format (product_shift as
     * in quantize).
     */
    static TtMatrixFxp quantizeAuto(const TtMatrix &tt,
                                    const FxpFormat &act_fmt,
                                    int product_shift = 8);
};

} // namespace tie

#endif // TIE_TT_TT_MATRIX_HH
