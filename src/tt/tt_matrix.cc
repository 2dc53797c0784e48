#include "tt/tt_matrix.hh"

#include <cmath>

namespace tie {

TtMatrix::TtMatrix(TtLayerConfig config) : config_(std::move(config))
{
    config_.validate();
    cores_.reserve(config_.d());
    for (size_t k = 0; k < config_.d(); ++k)
        cores_.emplace_back(config_.r[k], config_.m[k], config_.n[k],
                            config_.r[k + 1]);
}

const TtCore &
TtMatrix::core(size_t h) const
{
    TIE_REQUIRE(h >= 1 && h <= cores_.size(), "core index out of range");
    return cores_[h - 1];
}

TtCore &
TtMatrix::core(size_t h)
{
    TIE_REQUIRE(h >= 1 && h <= cores_.size(), "core index out of range");
    return cores_[h - 1];
}

size_t
TtMatrix::paramCount() const
{
    size_t total = 0;
    for (const auto &c : cores_)
        total += c.paramCount();
    return total;
}

MatrixD
TtMatrix::toDense() const
{
    const size_t dd = d();
    MatrixD w(config_.outSize(), config_.inSize());

    std::vector<size_t> ishape(config_.m);
    std::vector<size_t> jshape(config_.n);

    forEachIndex(ishape, [&](const std::vector<size_t> &i) {
        const size_t row = config_.yFlatIndex(i);
        forEachIndex(jshape, [&](const std::vector<size_t> &j) {
            // Chain product G_1[i1,j1] * ... * G_d[id,jd]; r_0 = 1 so we
            // carry a row vector of length r_k.
            std::vector<double> vec{1.0};
            for (size_t k = 1; k <= dd; ++k) {
                const TtCore &g = core(k);
                std::vector<double> next(g.rNext(), 0.0);
                for (size_t b = 0; b < g.rNext(); ++b) {
                    double acc = 0.0;
                    for (size_t a = 0; a < g.rPrev(); ++a)
                        acc += vec[a] * g.at(a, i[k - 1], j[k - 1], b);
                    next[b] = acc;
                }
                vec = std::move(next);
            }
            w(row, config_.xFlatIndex(j)) = vec[0];
        });
    });
    return w;
}

TtMatrix
TtMatrix::random(const TtLayerConfig &config, Rng &rng)
{
    TtMatrix tt(config);
    // Pick each core's stddev so that the product over d cores of
    // (stddev_k * sqrt(n_k * r_k)) is about 1 / sqrt(N) — a Xavier-like
    // criterion for the reconstructed operator.
    const size_t dd = config.m.size();
    for (size_t k = 1; k <= dd; ++k) {
        const double fan = static_cast<double>(config.n[k - 1] *
                                               config.r[k]);
        const double stddev = 1.0 / std::sqrt(fan);
        tt.core(k).setNormal(rng, stddev);
    }
    return tt;
}

TtMatrixFxp
TtMatrixFxp::quantize(const TtMatrix &tt, const std::vector<MacFormat> &fmts)
{
    TIE_CHECK_ARG(fmts.size() == tt.d(),
                  "need one MacFormat per stage, got ", fmts.size(),
                  " for d=", tt.d());
    for (const MacFormat &f : fmts)
        TIE_CHECK_ARG(f.product_shift >= 0 &&
                          f.product_shift <= kMaxProductShift,
                      "product_shift ", f.product_shift,
                      " outside [0, ", kMaxProductShift, "]");
    TtMatrixFxp out;
    out.config = tt.config();
    out.stage_fmt = fmts;
    out.cores.reserve(tt.d());
    for (size_t h = 1; h <= tt.d(); ++h) {
        const MatrixF wf = tt.core(h).unfolded().cast<float>();
        out.cores.push_back(quantizeMatrix(wf, fmts[h - 1].weight));
    }
    return out;
}

TtMatrixFxp
TtMatrixFxp::quantizeAuto(const TtMatrix &tt, const FxpFormat &act_fmt,
                          int product_shift)
{
    std::vector<MacFormat> fmts;
    fmts.reserve(tt.d());
    for (size_t h = 1; h <= tt.d(); ++h) {
        double max_abs = 0.0;
        for (double v : tt.core(h).unfolded().flat())
            max_abs = std::max(max_abs, std::abs(v));
        MacFormat f;
        f.weight = chooseFormat(max_abs);
        f.act_in = act_fmt;
        f.act_out = act_fmt;
        f.acc_bits = 24;
        f.product_shift = product_shift;
        fmts.push_back(f);
    }
    return quantize(tt, fmts);
}

} // namespace tie
