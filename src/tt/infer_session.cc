#include "tt/infer_session.hh"

#include <algorithm>

#include "linalg/gemm.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "quant/fxp_simd.hh"

namespace tie {

namespace {

/** Cached references to the session-layer stats (see obs/). */
struct SessionStats
{
    obs::Counter &runs;
    obs::Counter &plan_builds;
    obs::Counter &plan_cache_hits;
    obs::Gauge &arena_bytes;

    static SessionStats &
    get()
    {
        static SessionStats s{
            obs::StatRegistry::instance().counter(
                "session.runs", "InferSession inference calls"),
            obs::StatRegistry::instance().counter(
                "session.plan_builds",
                "arena (re)builds on batch change"),
            obs::StatRegistry::instance().counter(
                "session.plan_cache_hits",
                "runs reusing the cached arena"),
            obs::StatRegistry::instance().gauge(
                "session.arena_bytes",
                "ping-pong arena bytes after the last (re)build"),
        };
        return s;
    }
};

/**
 * Elements one ping-pong half must hold at @p batch: the largest of the
 * reshaped input (N) and every stage output coreRows(h) * stageCols(h)
 * (each stage stores its output, permuted, as the next stage's
 * operand — same element count), times the batch —
 * workingBufferElems scaled to the batch, i.e. the capacity of one of
 * the paper's dual working SRAMs.
 */
size_t
halfElems(const TtLayerConfig &cfg, size_t batch)
{
    size_t max_elems = cfg.inSize();
    for (size_t h = 1; h <= cfg.d(); ++h)
        max_elems =
            std::max(max_elems, cfg.coreRows(h) * cfg.stageCols(h));
    return max_elems * batch;
}

/**
 * Grow @p tiles to one m x kColBlock staging tile per slot for the
 * tallest stage at @p batch on the current pool, and return the slot
 * count. Runs before the stage loop, so a batch change or a pool
 * resize allocates once and the steady state never.
 */
template <typename T>
size_t
ensureStagingTiles(const TtLayerConfig &cfg, size_t batch,
                   pack::AlignedBuf<T> &tiles)
{
    size_t max_m = 0, slots = 1;
    for (size_t h = 1; h <= cfg.d(); ++h) {
        const size_t m = cfg.coreRows(h);
        max_m = std::max(max_m, m);
        slots = std::max(slots,
                         gemm::panelSlots(m, cfg.stageCols(h) * batch,
                                          cfg.coreCols(h)));
    }
    tiles.resize(std::max(tiles.size(),
                          slots * max_m * gemm::kColBlock));
    return slots;
}

/**
 * Column-panel layout (gemm::panelOffset) of stage h's operand, ncols
 * columns wide: stage d reads the reshaped input row-major; every
 * other operand is stored in kColBlock panels by the stage before, so
 * each panel a stage reads is one contiguous k x kColBlock block. (Rows
 * a whole batch wide sit a multiple of 4 KiB apart on VGG-FC7 and
 * would share L1 sets.)
 */
size_t
operandPanel(size_t h, size_t d, size_t ncols)
{
    return h == d ? ncols : gemm::kColBlock;
}

/** stagedPanels store: the tile goes where stage @p d's consumer reads. */
template <typename T>
auto
storeFor(const StageDescriptor &d, size_t batch, T *out)
{
    const simd::Isa isa = simd::activeIsa();
    return [&d, batch, out, isa](const T *tile, size_t p0, size_t w) {
        storeStageTile(isa, d, tile, p0, w, batch, out);
    };
}

template <typename T>
void
ensureShape(Matrix<T> &m, size_t r, size_t c)
{
    if (m.rows() != r || m.cols() != c)
        m = Matrix<T>(r, c);
}

/** CompactPlan::reshapeInput into caller storage (x is N x batch). */
template <typename T>
void
reshapeInputInto(const TtLayerConfig &cfg, const T *x, size_t batch,
                 T *out)
{
    const size_t nd = cfg.n.back();
    const size_t cols = cfg.stageCols(cfg.d());
    for (size_t b = 0; b < batch; ++b)
        for (size_t p = 0; p < nd; ++p)
            for (size_t q = 0; q < cols; ++q)
                out[p * cols * batch + b * cols + q] =
                    x[(p * cols + q) * batch + b];
}

/** CompactPlan::flattenOutput into caller storage (y is M x batch). */
template <typename T>
void
flattenOutputInto(const TtLayerConfig &cfg, const T *v1, size_t batch,
                  T *y)
{
    const size_t m1 = cfg.m.front();
    const size_t cols = cfg.stageCols(1);
    for (size_t b = 0; b < batch; ++b)
        for (size_t i1 = 0; i1 < m1; ++i1)
            for (size_t q = 0; q < cols; ++q)
                y[(i1 * cols + q) * batch + b] =
                    v1[i1 * cols * batch + b * cols + q];
}

} // namespace

namespace {

/** Shared shape validation for the view-based session constructors. */
template <typename T>
void
checkCoreViews(const TtLayerConfig &c,
               const std::vector<CoreView<T>> &cores)
{
    TIE_CHECK_ARG(cores.size() == c.d(), "InferSession needs ", c.d(),
                  " stage cores, got ", cores.size());
    for (size_t h = 1; h <= c.d(); ++h) {
        const CoreView<T> &v = cores[h - 1];
        TIE_CHECK_ARG(v.data != nullptr, "stage ", h,
                      " core view is null");
        TIE_CHECK_ARG(v.rows == c.coreRows(h) && v.cols == c.coreCols(h),
                      "stage ", h, " core is ", v.rows, "x", v.cols,
                      ", expected ", c.coreRows(h), "x", c.coreCols(h));
    }
}

/**
 * Fixed-point stage formats: one per stage, and each stage's act_out
 * must feed the next stage's act_in. Checked at construction and on
 * every re-bind of a TtMatrixFxp-backed session.
 */
void
checkFormatChain(const TtLayerConfig &cfg,
                 const std::vector<MacFormat> &fmt)
{
    TIE_CHECK_ARG(fmt.size() == cfg.d(), "fxp layer has ", fmt.size(),
                  " stage formats for d = ", cfg.d());
    for (size_t h = cfg.d(); h >= 2; --h) {
        const MacFormat &cur = fmt[h - 1];
        const MacFormat &next = fmt[h - 2];
        TIE_CHECK_ARG(cur.act_out.frac_bits == next.act_in.frac_bits &&
                          cur.act_out.total_bits ==
                              next.act_in.total_bits,
                      "stage ", h,
                      " act_out format does not match stage ", h - 1,
                      " act_in format");
    }
}

template <typename T>
std::vector<CoreView<T>>
viewsOf(const std::vector<const Matrix<T> *> &cores)
{
    std::vector<CoreView<T>> v;
    v.reserve(cores.size());
    for (const Matrix<T> *g : cores) {
        TIE_CHECK_ARG(g != nullptr, "InferSession got a null core");
        v.push_back({g->data(), g->rows(), g->cols()});
    }
    return v;
}

} // namespace

TtLayerViewD
layerView(const TtMatrix &tt)
{
    TtLayerViewD v;
    v.cfg = tt.config();
    v.cores.reserve(tt.d());
    for (size_t h = 1; h <= tt.d(); ++h) {
        const MatrixD &g = tt.core(h).unfolded();
        v.cores.push_back({g.data(), g.rows(), g.cols()});
    }
    return v;
}

TtFxpLayerView
layerView(const TtMatrixFxp &tt)
{
    TtFxpLayerView v;
    v.cfg = tt.config;
    v.cores.reserve(tt.cores.size());
    for (const Matrix<int16_t> &g : tt.cores)
        v.cores.push_back({g.data(), g.rows(), g.cols()});
    v.fmt = tt.stage_fmt;
    return v;
}

template <typename T>
InferSessionT<T>::InferSessionT(const TtLayerConfig &cfg,
                                std::vector<const Matrix<T> *> cores,
                                SessionOptions opts)
    : InferSessionT(TtLayerView<T>{cfg, viewsOf(cores)}, opts)
{
    // Matrix-backed sessions stay late-bound: the views are refreshed
    // from these objects at every run (see bound_ in the header).
    bound_ = std::move(cores);
}

template <typename T>
InferSessionT<T>::InferSessionT(TtLayerView<T> layer, SessionOptions opts)
    : plan_(layer.cfg), cores_(std::move(layer.cores)), opts_(opts),
      fast_(simd::resolveFastMode(opts.fast) == simd::FastMode::On)
{
    checkCoreViews(plan_.config(), cores_);
    packCores();
}

/**
 * (Re)pack every stage core into microkernel panels. Called at
 * construction and again per run for Matrix-bound sessions, whose
 * weight bytes may change between runs; the packed buffers are
 * grow-only and core shapes are fixed, so repacks never allocate.
 */
template <typename T>
void
InferSessionT<T>::packCores()
{
    packed_.resize(cores_.size());
    size_t panels = 0, bytes = 0;
    for (size_t i = 0; i < cores_.size(); ++i) {
        const CoreView<T> &g = cores_[i];
        const size_t elems = pack::packedAElems(g.rows, g.cols);
        packed_[i].resize(elems);
        pack::packA(g.rows, g.cols, g.data, packed_[i].data());
        panels += (g.rows + pack::kRowPanel - 1) / pack::kRowPanel;
        bytes += elems * sizeof(T);
    }
    pack::addPackStats(panels, bytes);
}

template <typename T>
void
InferSessionT<T>::ensureBatch(size_t batch)
{
    if (has_batch_ && batch == batch_) {
        SessionStats::get().plan_cache_hits.add();
        return;
    }
    half_ = halfElems(plan_.config(), batch);
    if (arena_.size() < 2 * half_)
        arena_.resize(2 * half_);
    has_batch_ = true;
    batch_ = batch;
    if (obs::enabled()) {
        SessionStats &ss = SessionStats::get();
        ss.plan_builds.add();
        ss.arena_bytes.set(static_cast<int64_t>(arenaBytes()));
    }
}

template <typename T>
void
InferSessionT<T>::runRaw(const T *x, size_t batch, T *ydirect,
                         T *yflat,
                         std::vector<Matrix<T>> *capture,
                         InferStats *stats)
{
    const TtLayerConfig &cfg = plan_.config();
    const size_t d = cfg.d();
    // Matrix-backed cores may have been replaced (and reallocated)
    // since the last run — training updates, TieEngine cache reuse —
    // so re-bind the views before touching any weight bytes.
    if (!bound_.empty()) {
        for (size_t i = 0; i < bound_.size(); ++i) {
            const Matrix<T> &g = *bound_[i];
            cores_[i] = {g.data(), g.rows(), g.cols()};
        }
        checkCoreViews(cfg, cores_);
        // The packed panels mirror the weight bytes, so they go stale
        // with the views; repacking costs one pass over the cores
        // (sum of m_h * k_h elements — noise next to the GEMMs).
        packCores();
    }
    ensureBatch(batch);
    const size_t slots = ensureStagingTiles(cfg, batch, tiles_);
    if (obs::enabled())
        SessionStats::get().runs.add();
    obs::HostSpan span("session.run");

    if (capture)
        capture->resize(d);

    T *const half0 = arena_.data();
    T *const half1 = arena_.data() + half_;

    // GEMM operand for the upcoming stage; `live` is the arena half it
    // occupies (-1: caller input / capture storage outside the arena).
    const T *op = nullptr;
    int live = -1;

    if (capture) {
        Matrix<T> &cap = (*capture)[d - 1];
        ensureShape(cap, cfg.n.back(), cfg.stageCols(d) * batch);
        reshapeInputInto(cfg, x, batch, cap.data());
        op = cap.data();
    } else if (batch == 1) {
        op = x; // reshapeInput is the identity map for one sample
    } else {
        reshapeInputInto(cfg, x, batch, half0);
        op = half0;
        live = 0;
    }

    size_t mults = 0;
    if (stats)
        stats->stage_mults.resize(d);

    for (size_t h = d; h >= 1; --h) {
        const CoreView<T> &g = cores_[h - 1];
        const size_t m = g.rows;
        const size_t k = g.cols;
        const size_t ncols = cfg.stageCols(h) * batch;

        // Capture runs keep a row-major copy of each stage's operand
        // for backward.
        const size_t bpanel = operandPanel(h, d, ncols);
        if (h < d && capture) {
            Matrix<T> &cap = (*capture)[h - 1];
            ensureShape(cap, k, ncols);
            for (size_t p0 = 0; p0 < ncols; p0 += bpanel)
                for (size_t row = 0; row < k; ++row)
                    std::copy_n(
                        op + gemm::panelOffset(k, ncols, bpanel, row, p0),
                        gemm::panelLd(ncols, bpanel, p0),
                        cap.data() + row * ncols + p0);
        }

        // Stage h stores its output as stage h-1's operand; stage 1
        // stores V_1 as is.
        T *out = (h == 1 && ydirect != nullptr)
                     ? ydirect
                     : (live == 0 ? half1 : half0);
        gemm::gemmPackedStaged(m, ncols, k, packed_[h - 1].data(), op,
                               bpanel, tiles_.data(), slots, fast_,
                               storeFor(plan_.stage(h), batch, out));

        const size_t sm = m * k * ncols;
        mults += sm;
        if (stats)
            stats->stage_mults[h - 1] = sm;
        op = out;
        live = out == half0 ? 0 : (out == half1 ? 1 : -1);
    }

    if (ydirect == nullptr)
        flattenOutputInto(cfg, op, batch, yflat);
    if (stats) {
        stats->mults = mults;
        stats->adds = mults; // one accumulation per executed product
    }
}

template <typename T>
Matrix<T>
InferSessionT<T>::run(const Matrix<T> &x, InferStats *stats)
{
    Matrix<T> y;
    runInto(x, y, stats);
    return y;
}

template <typename T>
void
InferSessionT<T>::runInto(const Matrix<T> &x, Matrix<T> &y,
                          InferStats *stats)
{
    const TtLayerConfig &cfg = plan_.config();
    TIE_CHECK_ARG(x.rows() == cfg.inSize(), "input rows ", x.rows(),
                  " != N = ", cfg.inSize());
    const size_t batch = x.cols();
    ensureShape(y, cfg.outSize(), batch);
    runRaw(x.data(), batch, batch == 1 ? y.data() : nullptr, y.data(),
           nullptr, stats);
}

template <typename T>
void
InferSessionT<T>::runVec(const std::vector<T> &x, std::vector<T> &y,
                         InferStats *stats)
{
    const TtLayerConfig &cfg = plan_.config();
    TIE_CHECK_ARG(x.size() == cfg.inSize(), "input rows ", x.size(),
                  " != N = ", cfg.inSize());
    y.resize(cfg.outSize());
    runRaw(x.data(), 1, y.data(), nullptr, nullptr, stats);
}

template <typename T>
void
InferSessionT<T>::runPtr(const T *x, size_t batch, T *y,
                         InferStats *stats)
{
    TIE_CHECK_ARG(x != nullptr && y != nullptr && batch >= 1,
                  "runPtr needs non-null buffers and batch >= 1");
    runRaw(x, batch, batch == 1 ? y : nullptr, y, nullptr, stats);
}

template <typename T>
void
InferSessionT<T>::runCapture(const Matrix<T> &x, Matrix<T> &y,
                             std::vector<Matrix<T>> &capture,
                             InferStats *stats)
{
    const TtLayerConfig &cfg = plan_.config();
    TIE_CHECK_ARG(x.rows() == cfg.inSize(), "input rows ", x.rows(),
                  " != N = ", cfg.inSize());
    const size_t batch = x.cols();
    ensureShape(y, cfg.outSize(), batch);
    runRaw(x.data(), batch, batch == 1 ? y.data() : nullptr, y.data(),
           &capture, stats);
}

template class InferSessionT<double>;
template class InferSessionT<float>;

InferSessionD
makeSession(const TtMatrix &tt, SessionOptions opts)
{
    // Bind to the core Matrix objects, not a pointer snapshot, so the
    // session tracks in-place weight updates (TieEngine's cache).
    std::vector<const MatrixD *> cores;
    cores.reserve(tt.d());
    for (size_t h = 1; h <= tt.d(); ++h)
        cores.push_back(&tt.core(h).unfolded());
    return InferSessionD(tt.config(), std::move(cores), opts);
}

InferSessionFxp::InferSessionFxp(const TtMatrixFxp &tt,
                                 SessionOptions opts)
    : InferSessionFxp(layerView(tt), opts)
{
    bound_ = &tt; // stay late-bound, like InferSessionT over Matrix
}

InferSessionFxp::InferSessionFxp(TtFxpLayerView layer,
                                 SessionOptions /*opts*/)
    : plan_(layer.cfg), cores_(std::move(layer.cores)),
      fmt_(std::move(layer.fmt))
{
    checkCoreViews(plan_.config(), cores_);
    checkFormatChain(plan_.config(), fmt_);
}

void
InferSessionFxp::ensureBatch(size_t batch)
{
    if (has_batch_ && batch == batch_) {
        SessionStats::get().plan_cache_hits.add();
        return;
    }
    half_ = halfElems(plan_.config(), batch);
    if (arena_.size() < 2 * half_)
        arena_.resize(2 * half_);
    has_batch_ = true;
    batch_ = batch;
    if (obs::enabled()) {
        SessionStats &ss = SessionStats::get();
        ss.plan_builds.add();
        ss.arena_bytes.set(static_cast<int64_t>(arenaBytes()));
    }
}

Matrix<int16_t>
InferSessionFxp::run(const Matrix<int16_t> &x, InferStats *stats)
{
    Matrix<int16_t> y;
    runInto(x, y, stats);
    return y;
}

void
InferSessionFxp::runInto(const Matrix<int16_t> &x, Matrix<int16_t> &y,
                         InferStats *stats)
{
    const TtLayerConfig &cfg = plan_.config();
    TIE_CHECK_ARG(x.rows() == cfg.inSize(), "input rows ", x.rows(),
                  " != N = ", cfg.inSize());
    const size_t batch = x.cols();
    const size_t d = cfg.d();
    // Re-bind TtMatrixFxp-backed cores/formats (see runRaw): the
    // owner may have requantized or replaced them since the last run.
    if (bound_) {
        TIE_CHECK_ARG(bound_->cores.size() == cores_.size() &&
                          bound_->stage_fmt.size() == fmt_.size(),
                      "bound TtMatrixFxp changed stage count");
        for (size_t i = 0; i < cores_.size(); ++i) {
            const Matrix<int16_t> &g = bound_->cores[i];
            cores_[i] = {g.data(), g.rows(), g.cols()};
            fmt_[i] = bound_->stage_fmt[i];
        }
        checkCoreViews(cfg, cores_);
        checkFormatChain(cfg, fmt_);
    }
    ensureShape(y, cfg.outSize(), batch);
    ensureBatch(batch);
    const size_t slots = ensureStagingTiles(cfg, batch, tiles_);
    const simd::Isa isa = simd::activeIsa();
    if (obs::enabled()) {
        SessionStats::get().runs.add();
        gemm::KernelStats::get().simd_isa.set(static_cast<int64_t>(isa));
    }
    obs::HostSpan span("session.run_fxp");

    int16_t *const half0 = arena_.data();
    int16_t *const half1 = arena_.data() + half_;

    const int16_t *op = nullptr;
    int live = -1;
    if (batch == 1) {
        op = x.data(); // reshapeInput is the identity for one sample
    } else {
        reshapeInputInto(cfg, x.data(), batch, half0);
        op = half0;
        live = 0;
    }

    size_t mults = 0;
    if (stats)
        stats->stage_mults.resize(d);

    for (size_t h = d; h >= 1; --h) {
        const CoreView<int16_t> &g = cores_[h - 1];
        const MacFormat &fmt = fmt_[h - 1];
        const size_t m = g.rows;
        const size_t k = g.cols;
        const size_t ncols = cfg.stageCols(h) * batch;

        int16_t *out = (h == 1 && batch == 1)
                           ? y.data()
                           : (live == 0 ? half1 : half0);
        gemm::stagedPanels(
            m, ncols, k, op, operandPanel(h, d, ncols), tiles_.data(),
            slots,
            [&](const int16_t *bp, size_t ldb, int16_t *tile, size_t w) {
                fxpBlock(isa, k, ldb, gemm::kColBlock, g.data, bp, fmt,
                         tile, 0, m, 0, w);
            },
            storeFor(plan_.stage(h), batch, out));

        const size_t sm = m * k * ncols;
        mults += sm;
        if (stats)
            stats->stage_mults[h - 1] = sm;
        op = out;
        live = out == half0 ? 0 : (out == half1 ? 1 : -1);
    }

    if (batch != 1)
        flattenOutputInto(cfg, op, batch, y.data());
    if (stats) {
        stats->mults = mults;
        stats->adds = mults; // one MAC accumulation per product
    }
}

} // namespace tie
