#include "tt/infer_session.hh"

#include <algorithm>

#include "common/thread_pool.hh"
#include "linalg/gemm.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "quant/fxp_simd.hh"
#include "tt/cost_model.hh"

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
                "arena (re)builds on batch-tile change"),
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
 * Samples per batch tile: as many as keep one ping-pong half —
 * workingBufferElems per sample — inside one working SRAM
 * (kWorkingSramBytes) per pool thread, at least 1 and at most the
 * batch. The threads split every stage's columns, so each one's share
 * of the tile stays within one working SRAM. A batch that fits one
 * SRAM is one tile without touching the pool.
 */
size_t
tileSamples(const TtLayerConfig &cfg, size_t batch, size_t elem_bytes)
{
    const size_t sample = workingBufferElems(cfg) * elem_bytes;
    if (batch * sample <= kWorkingSramBytes)
        return batch;
    const size_t fit = threadCount() * kWorkingSramBytes / sample;
    return std::clamp(fit, size_t(1), batch);
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

template <typename T>
void
ensureShape(Matrix<T> &m, size_t r, size_t c)
{
    if (m.rows() != r || m.cols() != c)
        m = Matrix<T>(r, c);
}

/**
 * Rows of x or y per block of the reshape and flatten passes: a
 * block's lines stay in L1 while every sample of the group runs over
 * them, so each sample's run in its tile block is one sequential copy.
 */
constexpr size_t kRowBlock = 16;

/**
 * Move a group of @p gb samples between x or y — @p rows x @p ld,
 * sample-minor, from the group's first column — and the per-tile
 * blocks the stage chain reads and writes: the tile starting at sample
 * t0 owns rows * tb elements at rows * t0, holding row p * cols + q of
 * its sample b at p * cols * tb + b * cols + q. That is
 * CompactPlan::reshapeInput for cols = stageCols(d) and, read the
 * other way, flattenOutput for cols = stageCols(1). kIn copies x into
 * the blocks (@p from is x), else the blocks into y (@p to is y).
 * Each line of x or y moves once. Rows are disjoint, so a pass of at
 * least gemm::kParallelMinWork elements runs on the pool with the same
 * bits; a smaller one runs inline without touching the pool.
 */
template <bool kIn, typename T>
void
moveGroup(size_t rows, size_t cols, const T *from, T *to, size_t ld,
          size_t gb, size_t tile)
{
    auto body = [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1;) {
            const size_t p = r / cols, q = r - p * cols;
            const size_t len = std::min({kRowBlock, r1 - r, cols - q});
            for (size_t t0 = 0; t0 < gb; t0 += tile) {
                const size_t tb = std::min(tile, gb - t0);
                const size_t blk = rows * t0 + p * cols * tb + q;
                for (size_t b = 0; b < tb; ++b)
                    for (size_t i = 0; i < len; ++i) {
                        const size_t xy = (r + i) * ld + t0 + b;
                        const size_t bl = blk + b * cols + i;
                        if constexpr (kIn)
                            to[bl] = from[xy];
                        else
                            to[xy] = from[bl];
                    }
            }
            r += len;
        }
    };
    if (rows * gb < gemm::kParallelMinWork)
        body(0, rows);
    else
        parallelFor(0, rows, gemm::kParallelMinWork / gb, body);
}

} // namespace

template <typename T>
std::string
checkCoreViews(const TtLayerConfig &c, const std::vector<CoreView<T>> &cores)
{
    if (cores.size() != c.d())
        return strCat("needs ", c.d(), " stage cores, got ", cores.size());
    for (size_t h = 1; h <= c.d(); ++h) {
        const CoreView<T> &v = cores[h - 1];
        if (v.data == nullptr)
            return strCat("stage ", h, " core view is null");
        if (v.rows != c.coreRows(h) || v.cols != c.coreCols(h))
            return strCat("stage ", h, " core is ", v.rows, "x", v.cols,
                          ", expected ", c.coreRows(h), "x", c.coreCols(h));
    }
    return {};
}

template std::string checkCoreViews(const TtLayerConfig &,
                                    const std::vector<CoreView<double>> &);
template std::string checkCoreViews(const TtLayerConfig &,
                                    const std::vector<CoreView<float>> &);
template std::string checkCoreViews(const TtLayerConfig &,
                                    const std::vector<CoreView<int16_t>> &);

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
    requires std::floating_point<T>
TtLayerView<T>
layerView(const TtLayerConfig &cfg, const std::vector<Matrix<T>> &cores)
{
    TtLayerView<T> v{cfg, {}};
    v.cores.reserve(cores.size());
    for (const Matrix<T> &g : cores)
        v.cores.push_back({g.data(), g.rows(), g.cols()});
    return v;
}

template TtLayerView<double> layerView(const TtLayerConfig &,
                                       const std::vector<MatrixD> &);
template TtLayerView<float> layerView(const TtLayerConfig &,
                                      const std::vector<MatrixF> &);

template <typename T>
InferSessionT<T>::InferSessionT(TtLayerView<T> layer, SessionOptions opts)
    : plan_(layer.cfg), opts_(opts),
      fast_(simd::resolveFastMode(opts.fast) == simd::FastMode::On)
{
    rebind(std::move(layer));
}

template <typename T>
void
InferSessionT<T>::rebind(TtLayerView<T> layer)
{
    TIE_CHECK_ARG(layer.cfg == config(), "InferSession rebind to ",
                  layer.cfg.toString(), ", bound to ",
                  config().toString());
    const std::string err = checkCoreViews(config(), layer.cores);
    TIE_CHECK_ARG(err.empty(), "InferSession ", err);
    if constexpr (kFxp) {
        const std::string chain = checkFormatChain(layer.fmt, config().d());
        TIE_CHECK_ARG(chain.empty(), chain);
        fmt_ = std::move(layer.fmt);
    }
    cores_ = std::move(layer.cores);
    if constexpr (!kFxp) {
        // Pack every stage core into microkernel panels, in interleave
        // groups where the stage stores through one; the buffers only
        // grow and core shapes are fixed by the config.
        packed_.resize(cores_.size());
        size_t panels = 0, bytes = 0;
        for (size_t i = 0; i < cores_.size(); ++i) {
            const CoreView<T> &g = cores_[i];
            const size_t elems = pack::packedAElems(g.rows, g.cols);
            packed_[i].resize(elems);
            const StageDescriptor &sd = plan_.stage(i + 1);
            if (storesGroups(sd))
                pack::packAGroups(sd.r_out, g.cols, g.data,
                                  packed_[i].data());
            else
                pack::packA(g.rows, g.cols, g.data, packed_[i].data());
            panels += (g.rows + pack::kRowPanel - 1) / pack::kRowPanel;
            bytes += elems * sizeof(T);
        }
        pack::addPackStats(panels, bytes);
    }
}

template <typename T>
void
InferSessionT<T>::ensureTile(size_t tile)
{
    if (tile == tile_) {
        SessionStats::get().plan_cache_hits.add();
        return;
    }
    // Round each half up to whole cache lines so half 1 starts on a
    // 64-byte boundary too.
    constexpr size_t line = pack::kAlign / sizeof(T);
    half_ = (workingBufferElems(plan_.config()) * tile + line - 1) /
            line * line;
    if (arena_.size() < 2 * half_)
        arena_.resize(2 * half_);
    tile_ = tile;
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
    // Stages run over batch tiles whose working set fits one working
    // SRAM; capture runs hand backward whole-batch operands, so they
    // run the batch as one tile.
    const size_t tile =
        capture ? batch : tileSamples(cfg, batch, sizeof(T));
    ensureTile(tile);
    const simd::Isa isa = simd::activeIsa();
    if (obs::enabled()) {
        SessionStats::get().runs.add();
        if constexpr (kFxp)
            gemm::KernelStats::get().simd_isa.set(
                static_cast<int64_t>(isa));
    }
    obs::HostSpan span("session.run");

    // Tiles run in groups that span at least one cache line of a row
    // of x and y: a group's input is reshaped into in_ and its output
    // flattened from out_ in one pass each, so every line of x and y
    // moves once however narrow the tile.
    constexpr size_t line = pack::kAlign / sizeof(T);
    const size_t group = std::min(batch, (line + tile - 1) / tile * tile);
    const size_t nin = cfg.inSize(), nout = cfg.outSize();
    if (batch > 1) {
        if (!capture)
            in_.resize(std::max(in_.size(), nin * group));
        out_.resize(std::max(out_.size(), nout * group));
    }

    if (capture)
        capture->resize(d);
    if (stats)
        stats->stage_mults.assign(d, 0);

    T *const half0 = arena_.data();
    T *const half1 = arena_.data() + half_;
    size_t mults = 0;

    for (size_t g0 = 0; g0 < batch; g0 += group) {
        const size_t gb = std::min(group, batch - g0);
        if (capture) {
            Matrix<T> &cap = (*capture)[d - 1];
            ensureShape(cap, cfg.n.back(), cfg.stageCols(d) * batch);
            moveGroup<true>(nin, cfg.stageCols(d), x, cap.data(), batch,
                            batch, batch);
        } else if (batch > 1) {
            moveGroup<true>(nin, cfg.stageCols(d), x + g0, in_.data(),
                            batch, gb, tile);
        }

        for (size_t t0 = 0; t0 < gb; t0 += tile) {
            const size_t tb = std::min(tile, gb - t0);

            // GEMM operand for the upcoming stage.
            const T *op = capture     ? (*capture)[d - 1].data()
                          : batch == 1 ? x // reshapeInput is the identity
                                       : in_.data() + nin * t0;

            for (size_t h = d; h >= 1; --h) {
                const CoreView<T> &g = cores_[h - 1];
                const size_t m = g.rows;
                const size_t k = g.cols;
                const size_t ncols = cfg.stageCols(h) * tb;

                // Capture runs keep a row-major copy of each stage's
                // operand for backward.
                const size_t bpanel = operandPanel(h, d, ncols);
                if (h < d && capture) {
                    Matrix<T> &cap = (*capture)[h - 1];
                    ensureShape(cap, k, ncols);
                    for (size_t p0 = 0; p0 < ncols; p0 += bpanel)
                        for (size_t row = 0; row < k; ++row)
                            std::copy_n(
                                op + gemm::panelOffset(k, ncols, bpanel,
                                                       row, p0),
                                gemm::panelLd(ncols, bpanel, p0),
                                cap.data() + row * ncols + p0);
                }

                // Stage h stores its output as stage h-1's operand in
                // the arena, stages alternating halves; stage 1 stores
                // V_1 as is, into y for one sample and into the tile's
                // block of out_ otherwise.
                T *out = h > 1                ? ((d - h) % 2 ? half1 : half0)
                         : ydirect != nullptr ? ydirect
                                              : out_.data() + nout * t0;
                const gemm::StageOut<T> so =
                    stageOut(plan_.stage(h), tb, out);
                if constexpr (kFxp) {
                    const MacFormat &fmt = fmt_[h - 1];
                    gemm::stagePanels(
                        m, ncols, k, op, bpanel,
                        [&](const T *bp, size_t ldb, size_t p0, size_t w) {
                            gemm::StageOut<T> o = so;
                            o.q0 += p0;
                            fxpStage(isa, k, ldb, g.data, bp, fmt, o, 0, m,
                                     0, w);
                        });
                } else {
                    gemm::gemmPackedStage(m, ncols, k,
                                          packed_[h - 1].data(), op,
                                          bpanel, fast_, so);
                }

                const size_t sm = m * k * ncols;
                mults += sm;
                if (stats)
                    stats->stage_mults[h - 1] += sm;
                op = out;
            }
        }

        if (ydirect == nullptr)
            moveGroup<false>(nout, cfg.stageCols(1), out_.data(),
                             yflat + g0, batch, gb, tile);
    }
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
template class InferSessionT<int16_t>;

InferSessionD
makeSession(const TtMatrix &tt, SessionOptions opts)
{
    return InferSessionD(layerView(tt), opts);
}

} // namespace tie
