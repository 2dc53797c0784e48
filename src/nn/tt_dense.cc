#include "nn/tt_dense.hh"

namespace tie {

TtDense::TtDense(const TtLayerConfig &cfg, Rng &rng, bool bias)
    : cfg_(cfg), has_bias_(bias), b_(cfg.outSize(), 1),
      gb_(cfg.outSize(), 1)
{
    TtMatrix init = TtMatrix::random(cfg_, rng);
    cores_.reserve(cfg_.d());
    gcores_.reserve(cfg_.d());
    for (size_t h = 1; h <= cfg_.d(); ++h) {
        cores_.push_back(init.core(h).unfolded().cast<float>());
        gcores_.emplace_back(cores_.back().rows(), cores_.back().cols());
    }
    stage_in_.resize(cfg_.d());
    std::vector<const MatrixF *> core_ptrs;
    core_ptrs.reserve(cores_.size());
    for (const MatrixF &c : cores_)
        core_ptrs.push_back(&c);
    session_ =
        std::make_unique<InferSessionF>(cfg_, std::move(core_ptrs));
}

std::unique_ptr<TtDense>
TtDense::fromDense(const MatrixF &w, const TtLayerConfig &cfg, Rng &rng,
                   bool bias)
{
    TtMatrix dec = ttSvdMatrix(w.cast<double>(), cfg);
    auto layer = std::make_unique<TtDense>(dec.config(), rng, bias);
    for (size_t h = 1; h <= dec.d(); ++h)
        layer->cores_[h - 1] = dec.core(h).unfolded().cast<float>();
    return layer;
}

MatrixF
TtDense::forward(const MatrixF &x)
{
    TIE_CHECK_ARG(x.rows() == cfg_.inSize(), "TtDense input features ",
                  x.rows(), " != ", cfg_.inSize());
    batch_ = x.cols();
    MatrixF y;
    session_->runCapture(x, y, stage_in_);
    if (has_bias_) {
        for (size_t i = 0; i < y.rows(); ++i)
            for (size_t b = 0; b < y.cols(); ++b)
                y(i, b) += b_(i, 0);
    }
    return y;
}

MatrixF
TtDense::backward(const MatrixF &dy)
{
    TIE_CHECK_ARG(dy.rows() == cfg_.outSize() && dy.cols() == batch_,
                  "TtDense backward shape mismatch");

    if (has_bias_) {
        for (size_t i = 0; i < dy.rows(); ++i) {
            float s = 0.0f;
            for (size_t b = 0; b < dy.cols(); ++b)
                s += dy(i, b);
            gb_(i, 0) += s;
        }
    }

    // Un-flatten dy into dV_1 (inverse of CompactPlan::flattenOutput).
    const size_t m1 = cfg_.m.front();
    const size_t cols1 = cfg_.stageCols(1);
    MatrixF dv(m1, cols1 * batch_);
    for (size_t b = 0; b < batch_; ++b)
        for (size_t i1 = 0; i1 < m1; ++i1)
            for (size_t q = 0; q < cols1; ++q)
                dv(i1, b * cols1 + q) = dy(i1 * cols1 + q, b);

    // Walk the stage chain in reverse (h = 1 .. d). For stage h:
    // V_h = G~_h O_h with cached operand O_h, so
    //   dG~_h += dV_h O_h^T,   dO_h = G~_h^T dV_h,
    // and dV_{h+1} = invTransform_{h+1}(dO_h) since
    // O_h = transform_{h+1}(V_{h+1}).
    for (size_t h = 1; h <= cfg_.d(); ++h) {
        const MatrixF &op = stage_in_[h - 1];
        gcores_[h - 1] =
            add(gcores_[h - 1], matmul(dv, op.transposed()));
        MatrixF dop = matmul(cores_[h - 1].transposed(), dv);
        if (h < cfg_.d()) {
            // The inverse through the stage-(h+1) descriptor: element
            // (p, q) of V_{h+1} is operand element operandDest(p, q).
            const StageDescriptor &sd = session_->plan().stage(h + 1);
            MatrixF dnext(sd.rows, size_t(sd.cols) * batch_);
            for (size_t p = 0; p < dnext.rows(); ++p)
                for (size_t q = 0; q < dnext.cols(); ++q) {
                    const auto [dp, dq] = operandDest(sd, p, q);
                    dnext(p, q) = dop(dp, dq);
                }
            dv = std::move(dnext);
        } else {
            // dO_d is dX': invert CompactPlan::reshapeInput.
            const size_t nd = cfg_.n.back();
            const size_t cd = cfg_.stageCols(cfg_.d());
            MatrixF dx(cfg_.inSize(), batch_);
            for (size_t b = 0; b < batch_; ++b)
                for (size_t p = 0; p < nd; ++p)
                    for (size_t q = 0; q < cd; ++q)
                        dx(p * cd + q, b) = dop(p, b * cd + q);
            return dx;
        }
    }
    TIE_PANIC("unreachable: TtDense backward fell through");
}

std::vector<ParamRef>
TtDense::params()
{
    std::vector<ParamRef> out;
    for (size_t k = 0; k < cores_.size(); ++k)
        out.push_back({&cores_[k], &gcores_[k]});
    if (has_bias_)
        out.push_back({&b_, &gb_});
    return out;
}

const MatrixF &
TtDense::stageCore(size_t h) const
{
    TIE_REQUIRE(h >= 1 && h <= cores_.size(), "stage core out of range");
    return cores_[h - 1];
}

MatrixF &
TtDense::stageCore(size_t h)
{
    TIE_REQUIRE(h >= 1 && h <= cores_.size(), "stage core out of range");
    return cores_[h - 1];
}

TtMatrix
TtDense::toTtMatrix() const
{
    TtMatrix tt(cfg_);
    for (size_t h = 1; h <= cfg_.d(); ++h)
        tt.core(h) = TtCore(cfg_.r[h - 1], cfg_.m[h - 1], cfg_.n[h - 1],
                            cfg_.r[h], cores_[h - 1].cast<double>());
    return tt;
}

MatrixD
TtDense::toDense() const
{
    return toTtMatrix().toDense();
}

} // namespace tie
