/**
 * @file
 * TT-format fully-connected layer: forward is the paper's compact
 * inference scheme (Algorithm 1); backward propagates through the
 * stage chain — each stage is a GEMM plus a fixed permutation, so the
 * gradient flows through transposed cores and inverse permutations.
 * This implements the "train from scratch" and "fine-tune after
 * TT-SVD" flows of paper Sec. 2.2 without ever densifying the weights.
 */

#ifndef TIE_NN_TT_DENSE_HH
#define TIE_NN_TT_DENSE_HH

#include "nn/layer.hh"
#include "tt/infer_session.hh"
#include "tt/tt_svd.hh"

namespace tie {

/** Fully-connected layer stored and trained in TT format. */
class TtDense : public Layer
{
  public:
    /** Randomly initialised TT layer (train-from-scratch flow). */
    TtDense(const TtLayerConfig &cfg, Rng &rng, bool bias = true);

    /**
     * Initialise from dense weights via TT-SVD (convert-then-fine-tune
     * flow). Ranks are capped by cfg.r.
     */
    static std::unique_ptr<TtDense> fromDense(const MatrixF &w,
                                              const TtLayerConfig &cfg,
                                              Rng &rng, bool bias = true);

    MatrixF forward(const MatrixF &x) override;
    MatrixF backward(const MatrixF &dy) override;
    std::vector<ParamRef> params() override;
    std::string name() const override { return "TtDense"; }
    size_t
    outFeatures(size_t) const override
    {
        return cfg_.outSize();
    }

    const TtLayerConfig &config() const { return cfg_; }

    /** Unfolded stage core h (1-based). */
    const MatrixF &stageCore(size_t h) const;
    MatrixF &stageCore(size_t h);

    /** Bias vector (M x 1; zeros when constructed without bias). */
    const MatrixF &bias() const { return b_; }
    bool hasBias() const { return has_bias_; }

    /** Reconstruct the dense operator (tests / analysis only). */
    MatrixD toDense() const;

    /** Snapshot into the double-precision TT container. */
    TtMatrix toTtMatrix() const;

  private:
    TtLayerConfig cfg_;
    bool has_bias_;
    std::vector<MatrixF> cores_;  ///< unfolded, index h-1
    std::vector<MatrixF> gcores_;
    MatrixF b_;
    MatrixF gb_;
    /**
     * View-only session over cores_; forward rebinds it to cores_
     * before every run, since training changes the weights between
     * runs. Forward runs in capture mode so stage_in_ holds each
     * stage's operand for backward.
     */
    std::unique_ptr<InferSessionF> session_;
    std::vector<MatrixF> stage_in_; ///< captured operand per stage
    size_t batch_ = 0;
};

} // namespace tie

#endif // TIE_NN_TT_DENSE_HH
