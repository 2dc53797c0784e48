/**
 * @file
 * The three TT-format inference schemes the paper analyses:
 *
 *  - naiveInfer:           Eqn. (2) executed literally — one chain
 *                          product per (output element, input element).
 *                          Massive redundancy (Eqn. 3 multiplications).
 *  - partialParallelInfer: Fig. 5 — stage-1 parallelised over the input,
 *                          later stages still per-element.
 *  - compactInfer:         Sec. 3.2 / Algorithm 1 — d matrix
 *                          multiplications with the inter-stage
 *                          Transform; reaches the theoretical minimum
 *                          multiplication count (Eqn. 7, up to the
 *                          boundary terms — see cost_model.hh).
 *
 * All schemes return identical values (tests assert this); they differ
 * only in operation count, which each reports via InferStats.
 */

#ifndef TIE_TT_TT_INFER_HH
#define TIE_TT_TT_INFER_HH

#include <optional>

#include "tt/stage_program.hh"
#include "tt/tt_matrix.hh"
#include "tt/tt_transform.hh"

namespace tie {

/**
 * Operation counters for one inference call. Every infer path resets
 * the struct at entry, so one instance can be reused across schemes
 * (as the bench binaries do) without stale fields leaking through.
 * `adds` counts one accumulation per executed product plus any final
 * output accumulations, in every scheme.
 */
struct InferStats
{
    size_t mults = 0;
    size_t adds = 0;
    /**
     * Per-stage multiplication counts (compact schemes only), indexed
     * stage-first: stage_mults[h-1] is the count of the GEMM using core
     * G~_h. Execution still runs h = d..1; the storage order matches
     * multCompactPerStage (cost_model.hh) and every other per-stage
     * array in the library.
     */
    std::vector<size_t> stage_mults;
};

/** Eqn. (2), literal. x has length N; returns y of length M. */
std::vector<double> naiveInfer(const TtMatrix &tt,
                               const std::vector<double> &x,
                               InferStats *stats = nullptr);

/** Fig. 5: input-parallel stage-1, element-serial later stages. */
std::vector<double> partialParallelInfer(const TtMatrix &tt,
                                         const std::vector<double> &x,
                                         InferStats *stats = nullptr);

/**
 * Compact scheme (Algorithm 1) on a batch: x is N x B (each column one
 * sample), returns M x B.
 */
MatrixD compactInfer(const TtMatrix &tt, const MatrixD &x,
                     InferStats *stats = nullptr);

/** Single-sample convenience wrapper around compactInfer. */
std::vector<double> compactInferVec(const TtMatrix &tt,
                                    const std::vector<double> &x,
                                    InferStats *stats = nullptr);

/**
 * Compact scheme in 16-bit fixed point with 24-bit accumulation —
 * the bit-exact functional reference for the cycle-accurate simulator.
 * x raw values are in tt.stage_fmt[d-1].act_in format; the result is in
 * tt.stage_fmt[0].act_out format.
 */
Matrix<int16_t> compactInferFxp(const TtMatrixFxp &tt,
                                const Matrix<int16_t> &x,
                                InferStats *stats = nullptr);

/**
 * Per-layer plan: the config plus the controller's stage program
 * (tt/stage_program.hh) — a few scalars per stage, from which the
 * sessions compute every inter-stage address. No per-element tables.
 */
class CompactPlan
{
  public:
    explicit CompactPlan(const TtLayerConfig &cfg);

    const TtLayerConfig &config() const { return cfg_; }

    /** Descriptor of stage h (1 <= h <= d). */
    const StageDescriptor &stage(size_t h) const;

    /** Reshape x (N x B) into the stage-d operand X'. */
    template <typename T>
    Matrix<T>
    reshapeInput(const Matrix<T> &x) const
    {
        const size_t nd = cfg_.n.back();
        const size_t cols = cfg_.stageCols(cfg_.d());
        const size_t batch = x.cols();
        TIE_CHECK_ARG(x.rows() == cfg_.inSize(),
                      "input rows ", x.rows(), " != N = ", cfg_.inSize());
        Matrix<T> out(nd, cols * batch);
        for (size_t b = 0; b < batch; ++b)
            for (size_t p = 0; p < nd; ++p)
                for (size_t q = 0; q < cols; ++q)
                    out(p, b * cols + q) = x(p * cols + q, b);
        return out;
    }

    /** Flatten the final V_1 (m_1 x (M/m_1)*B) into y (M x B). */
    template <typename T>
    Matrix<T>
    flattenOutput(const Matrix<T> &v1, size_t batch) const
    {
        const size_t m1 = cfg_.m.front();
        const size_t cols = cfg_.stageCols(1);
        TIE_CHECK_ARG(v1.rows() == m1 && v1.cols() == cols * batch,
                      "final stage output shape mismatch");
        Matrix<T> y(cfg_.outSize(), batch);
        for (size_t b = 0; b < batch; ++b)
            for (size_t i1 = 0; i1 < m1; ++i1)
                for (size_t q = 0; q < cols; ++q)
                    y(i1 * cols + q, b) = v1(i1, b * cols + q);
        return y;
    }

  private:
    TtLayerConfig cfg_;
    LayerProgram program_; ///< stages in order h = d .. 1
};

} // namespace tie

#endif // TIE_TT_TT_INFER_HH
