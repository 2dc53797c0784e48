#include "tt/tt_infer.hh"

#include "tt/infer_session.hh"

namespace tie {

std::vector<double>
naiveInfer(const TtMatrix &tt, const std::vector<double> &x,
           InferStats *stats)
{
    const TtLayerConfig &cfg = tt.config();
    TIE_CHECK_ARG(x.size() == cfg.inSize(), "naiveInfer input length");
    if (stats)
        *stats = InferStats{};

    std::vector<double> y(cfg.outSize(), 0.0);
    size_t mults = 0, adds = 0;

    forEachIndex(cfg.m, [&](const std::vector<size_t> &i) {
        const size_t row = cfg.yFlatIndex(i);
        forEachIndex(cfg.n, [&](const std::vector<size_t> &j) {
            // Chain right-to-left starting from the scalar X(j), exactly
            // the d matrix-vector stages the paper's Eqn. 3 counts.
            std::vector<double> vec{x[cfg.xFlatIndex(j)]};
            for (size_t k = cfg.d(); k >= 1; --k) {
                const TtCore &g = tt.core(k);
                std::vector<double> next(g.rPrev(), 0.0);
                for (size_t a = 0; a < g.rPrev(); ++a) {
                    double acc = 0.0;
                    for (size_t b = 0; b < g.rNext(); ++b) {
                        acc += g.at(a, i[k - 1], j[k - 1], b) * vec[b];
                        ++mults;
                        ++adds;
                    }
                    next[a] = acc;
                }
                vec = std::move(next);
            }
            y[row] += vec[0];
            ++adds;
        });
    });

    if (stats) {
        stats->mults = mults;
        stats->adds = adds;
    }
    return y;
}

std::vector<double>
partialParallelInfer(const TtMatrix &tt, const std::vector<double> &x,
                     InferStats *stats)
{
    const TtLayerConfig &cfg = tt.config();
    TIE_CHECK_ARG(x.size() == cfg.inSize(), "partialParallelInfer input");
    if (stats)
        *stats = InferStats{};

    const size_t dd = cfg.d();
    const size_t r_last = cfg.r[dd - 1]; // r_{d-1}
    const size_t md = cfg.m[dd - 1];

    size_t mults = 0, adds = 0;

    // Stage-1 (paper Fig. 5): parallelise over the d-th input dimension
    // once — V_d = G~_d X'.
    CompactPlan plan(cfg);
    MatrixD xm(cfg.inSize(), 1, x);
    MatrixD xp = plan.reshapeInput(xm);
    MatrixD vd = matmul(tt.core(dd).unfolded(), xp);
    const size_t stage_d_ops = tt.core(dd).unfolded().rows() *
                               tt.core(dd).unfolded().cols() * xp.cols();
    mults += stage_d_ops;
    adds += stage_d_ops;

    std::vector<double> y(cfg.outSize(), 0.0);

    // Later stages remain per output-group: for every (i_1..i_{d-1})
    // and every encoded (j_1..j_{d-1}) column, chain the slices down —
    // recomputing shared products, which is the residual redundancy.
    std::vector<size_t> outer_shape(cfg.m.begin(), cfg.m.end() - 1);
    std::vector<size_t> jshape(cfg.n.begin(), cfg.n.end() - 1);

    forEachIndex(outer_shape, [&](const std::vector<size_t> &i) {
        forEachIndex(jshape, [&](const std::vector<size_t> &j) {
            const size_t q = [&] {
                size_t idx = 0, stride = 1;
                for (size_t l = 0; l + 1 < dd; ++l) {
                    idx += j[l] * stride;
                    stride *= cfg.n[l];
                }
                return idx;
            }();

            // B(t, i_d) = V_d(i_d * r_{d-1} + t, q).
            MatrixD b(r_last, md);
            for (size_t t = 0; t < r_last; ++t)
                for (size_t id = 0; id < md; ++id)
                    b(t, id) = vd(id * r_last + t, q);

            for (size_t k = dd - 1; k >= 1; --k) {
                const MatrixD g = tt.core(k).slice(i[k - 1], j[k - 1]);
                b = matmul(g, b);
                mults += g.rows() * g.cols() * md;
                adds += g.rows() * g.cols() * md;
            }

            // b is now 1 x m_d: accumulate into Y(i_1..i_{d-1}, :).
            std::vector<size_t> full(dd, 0);
            for (size_t l = 0; l + 1 < dd; ++l)
                full[l] = i[l];
            for (size_t id = 0; id < md; ++id) {
                full[dd - 1] = id;
                y[cfg.yFlatIndex(full)] += b(0, id);
                ++adds;
            }
        });
    });

    if (stats) {
        stats->mults = mults;
        stats->adds = adds;
    }
    return y;
}

MatrixD
compactInfer(const TtMatrix &tt, const MatrixD &x, InferStats *stats)
{
    // A transient session: identical bits and stats, amortised plan
    // construction for repeat callers lives in InferSession itself.
    InferSessionD session = makeSession(tt);
    return session.run(x, stats);
}

std::vector<double>
compactInferVec(const TtMatrix &tt, const std::vector<double> &x,
                InferStats *stats)
{
    InferSessionD session = makeSession(tt);
    std::vector<double> y;
    session.runVec(x, y, stats);
    return y;
}

Matrix<int16_t>
compactInferFxp(const TtMatrixFxp &tt, const Matrix<int16_t> &x,
                InferStats *stats)
{
    return InferSessionFxp(layerView(tt)).run(x, stats);
}

CompactPlan::CompactPlan(const TtLayerConfig &cfg)
    : cfg_(cfg), program_(LayerProgram::compile(cfg))
{}

const StageDescriptor &
CompactPlan::stage(size_t h) const
{
    TIE_REQUIRE(h >= 1 && h <= cfg_.d(), "stage h out of range");
    return program_.stages[cfg_.d() - h];
}

} // namespace tie
