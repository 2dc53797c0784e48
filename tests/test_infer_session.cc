/**
 * @file
 * InferSession tests: bit-identity against the pre-session compact
 * pipeline (rebuilt here from the public primitives it was made of)
 * for f64, f32 and int16, batch tiles against batch-1 runs,
 * capture-mode operands, the stage-first InferStats convention, arena
 * sizing, observability counters, and — via global operator new/delete
 * hooks, aligned ones included — the zero-heap-allocation guarantee of
 * steady-state runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "core/workloads.hh"
#include "linalg/gemm.hh"
#include "obs/stat_registry.hh"
#include "tt/cost_model.hh"
#include "tt/infer_session.hh"

// ---------------------------------------------------------------------
// Global allocation hook. Counting is off by default; tests flip it on
// around steady-state regions only, so gtest's own allocations between
// assertions are not counted.
// ---------------------------------------------------------------------

static std::atomic<bool> g_count_allocs{false};
static std::atomic<uint64_t> g_alloc_count{0};
static std::atomic<uint64_t> g_alloc_bytes{0};

static void *
countedAlloc(std::size_t sz)
{
    if (g_count_allocs.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
        g_alloc_bytes.fetch_add(sz, std::memory_order_relaxed);
    }
    void *p = std::malloc(sz ? sz : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new(std::size_t sz)
{
    return countedAlloc(sz);
}

void *
operator new[](std::size_t sz)
{
    return countedAlloc(sz);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

// Aligned allocations: the session arena, group blocks and packed
// cores (pack::AlignedBuf).
void *
operator new(std::size_t sz, std::align_val_t al)
{
    if (g_count_allocs.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
        g_alloc_bytes.fetch_add(sz, std::memory_order_relaxed);
    }
    const std::size_t a = static_cast<std::size_t>(al);
    void *p = std::aligned_alloc(a, (sz + a - 1) / a * a);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace tie {
namespace {

/**
 * One stage GEMM of the reference pipeline: matmul, or with @p fast
 * the packed kernel with FMA permitted (what a TIE_FAST f32 session
 * runs per element).
 */
template <typename T>
Matrix<T>
stageProduct(const Matrix<T> &g, const Matrix<T> &v, bool fast)
{
    if (!fast)
        return matmul(g, v);
    std::vector<T> pa(pack::packedAElems(g.rows(), g.cols()));
    pack::packA(g.rows(), g.cols(), g.data(), pa.data());
    Matrix<T> out(g.rows(), v.cols());
    gemm::gemmPackedBlocked(g.rows(), v.cols(), g.cols(), pa.data(),
                            v.data(), out.data(), true);
    return out;
}

// The compact pipeline exactly as the entry points executed it before
// InferSession existed: materialized transforms via the public
// primitives. The session must match this bit for bit.
template <typename T>
Matrix<T>
referenceCompactCores(const TtLayerConfig &cfg,
                      const std::vector<Matrix<T>> &cores,
                      const Matrix<T> &x, bool fast = false)
{
    const size_t batch = x.cols();
    CompactPlan plan(cfg);
    Matrix<T> v = plan.reshapeInput(x);
    for (size_t h = cfg.d(); h >= 1; --h) {
        v = stageProduct(cores[h - 1], v, fast);
        if (h > 1)
            v = applyTransformBatched(makeStageTransform(cfg, h), v, batch);
    }
    return plan.flattenOutput(v, batch);
}

MatrixD
referenceCompact(const TtMatrix &tt, const MatrixD &x)
{
    std::vector<MatrixD> cores;
    for (size_t h = 1; h <= tt.d(); ++h)
        cores.push_back(tt.core(h).unfolded());
    return referenceCompactCores(tt.config(), cores, x);
}

/** f32 copies of a TtMatrix's unfolded cores. */
std::vector<MatrixF>
floatCores(const TtMatrix &tt)
{
    std::vector<MatrixF> out;
    for (size_t h = 1; h <= tt.d(); ++h) {
        const MatrixD &u = tt.core(h).unfolded();
        MatrixF f(u.rows(), u.cols());
        for (size_t i = 0; i < u.size(); ++i)
            f.flat()[i] = static_cast<float>(u.flat()[i]);
        out.push_back(std::move(f));
    }
    return out;
}

Matrix<int16_t>
referenceCompactFxp(const TtMatrixFxp &tt, const Matrix<int16_t> &x)
{
    const TtLayerConfig &cfg = tt.config;
    const size_t batch = x.cols();
    CompactPlan plan(cfg);
    Matrix<int16_t> v = plan.reshapeInput(x);
    for (size_t h = cfg.d(); h >= 1; --h) {
        v = fxpMatmul(tt.cores[h - 1], v, tt.stage_fmt[h - 1]);
        if (h > 1)
            v = applyTransformBatched(makeStageTransform(cfg, h), v, batch);
    }
    return plan.flattenOutput(v, batch);
}

std::vector<TtLayerConfig>
testConfigs()
{
    TtLayerConfig d2;
    d2.m = {3, 4};
    d2.n = {2, 5};
    d2.r = {1, 3, 1};

    TtLayerConfig d3; // asymmetric ranks
    d3.m = {2, 3, 4};
    d3.n = {4, 3, 2};
    d3.r = {1, 2, 5, 1};

    TtLayerConfig d4;
    d4.m = {2, 3, 2, 3};
    d4.n = {3, 2, 3, 2};
    d4.r = {1, 3, 2, 4, 1};

    // Wide enough that gathered stages span several column panels and
    // clear gemm::kParallelMinWork, so 4 threads run parallel slots.
    TtLayerConfig wide;
    wide.m = {4, 5, 4};
    wide.n = {3, 4, 5};
    wide.r = {1, 6, 5, 1};

    return {d2, d3, d4, wide};
}

/** Batches of the reference sweeps; 37 leaves ragged last panels. */
const size_t kSweepBatches[] = {1, 7, 37, 64};

TEST(InferSession, SweepCoversRaggedParallelPanels)
{
    // The sweeps below must reach a gathered stage that runs parallel
    // slots and whose last panel is partial with a width that is not a
    // lane multiple, so the kernels' scalar column tails run through
    // the strided panel path.
    bool covered = false;
    for (const TtLayerConfig &cfg : testConfigs())
        for (size_t batch : kSweepBatches)
            for (size_t h = 1; h < cfg.d(); ++h) {
                const size_t n = cfg.stageCols(h) * batch;
                const size_t tail = n % gemm::kColBlock;
                covered |= n > gemm::kColBlock && tail % 8 != 0 &&
                           cfg.coreRows(h) * n * cfg.coreCols(h) >=
                               gemm::kParallelMinWork;
            }
    EXPECT_TRUE(covered);
}

/** Restores the ambient pool size when a test rescales it. */
struct ThreadCountGuard
{
    size_t ambient = threadCount();
    ~ThreadCountGuard() { setThreadCount(ambient); }
};

/** A config and the batches its store sweep runs. */
struct StoreCase
{
    TtLayerConfig cfg;
    std::vector<size_t> batches;
};

/**
 * Configs for the inter-stage store paths; testConfigs() never yields
 * a segment (stageCols(h) / n_{h-1}) that is a multiple of a tile
 * width. uniform(4, 4, 4, 4) has segments of 16 everywhere, so every
 * tile of every dtype runs the interleave; `edges` (m_h = 4, segments
 * 24 / 8 / 16) has tiles straddling segment edges, whose runs split
 * and end in scalar tails; VGG-FC7 is the benchmark shape. `odd`
 * stores with m_h = 3 and 5, and `r1` with m_h = 2, so both take the
 * fallback epilogue; `r1` and `groups` also store with r_out = 1 and
 * rank 5, and `groups` interleaves at r_out = 1 into segments of 16.
 * Their n factors 3, 5 and 7 make vectors straddle segment and sample
 * edges.
 */
std::vector<StoreCase>
storeCases()
{
    TtLayerConfig edges;
    edges.m = {4, 4, 4, 4};
    edges.n = {2, 12, 3, 2};
    edges.r = {1, 3, 2, 5, 1};
    TtLayerConfig odd;
    odd.m = {2, 3, 5};
    odd.n = {3, 5, 7};
    odd.r = {1, 5, 2, 1};
    TtLayerConfig r1;
    r1.m = {4, 2, 4, 4};
    r1.n = {3, 5, 7, 2};
    r1.r = {1, 1, 5, 3, 1};
    TtLayerConfig groups = r1;
    groups.m = {4, 4, 4, 4};
    return {{TtLayerConfig::uniform(4, 4, 4, 4), {1, 7, 37}},
            {edges, {1, 7, 37}},
            {workloads::vggFc7(), {3}},
            {odd, {1, 2, 7, 37}},
            {r1, {1, 2, 7, 37}},
            {groups, {1, 2, 7, 37}}};
}

TEST(InferSession, StoreConfigsBitIdenticalForEveryDtype)
{
    ThreadCountGuard guard;
    Rng rng(53);
    SessionOptions exact, fast;
    exact.fast = simd::FastMode::Off;
    fast.fast = simd::FastMode::On;
    for (const StoreCase &sc : storeCases()) {
        const TtLayerConfig &cfg = sc.cfg;
        TtMatrix tt = TtMatrix::random(cfg, rng);
        std::vector<MatrixD> dcores;
        for (size_t h = 1; h <= cfg.d(); ++h)
            dcores.push_back(tt.core(h).unfolded());
        const std::vector<MatrixF> fcores = floatCores(tt);
        TtMatrixFxp fxp = TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});

        InferSessionD s64 = makeSession(tt);
        InferSessionF s32(layerView(cfg, fcores), exact);
        InferSessionF s32f(layerView(cfg, fcores), fast);
        InferSessionFxp s16(layerView(fxp));
        for (size_t batch : sc.batches) {
            MatrixD xd(cfg.inSize(), batch);
            xd.setUniform(rng);
            MatrixF xf(cfg.inSize(), batch);
            xf.setUniform(rng);
            const Matrix<int16_t> xq = quantizeMatrix(xf, FxpFormat{16, 8});
            const MatrixD r64 = referenceCompactCores(cfg, dcores, xd);
            const MatrixF r32 = referenceCompactCores(cfg, fcores, xf);
            const MatrixF r32f =
                referenceCompactCores(cfg, fcores, xf, true);
            const Matrix<int16_t> r16 = referenceCompactFxp(fxp, xq);
            for (size_t threads : {size_t(1), size_t(4)}) {
                setThreadCount(threads);
                const std::string at = cfg.toString() + " batch " +
                                       std::to_string(batch) +
                                       " threads " +
                                       std::to_string(threads);
                MatrixD y64;
                MatrixF y32, y32f;
                Matrix<int16_t> y16;
                s64.runInto(xd, y64);
                s32.runInto(xf, y32);
                s32f.runInto(xf, y32f);
                s16.runInto(xq, y16);
                EXPECT_TRUE(y64 == r64) << "f64 " << at;
                EXPECT_TRUE(y32 == r32) << "f32 exact " << at;
                EXPECT_TRUE(y32f == r32f) << "f32 fast " << at;
                EXPECT_TRUE(y16 == r16) << "int16 " << at;
            }
        }
    }
}

/**
 * Samples per batch tile a session of element type T runs on @p cfg
 * on the current pool: one working SRAM per thread.
 */
template <typename T>
size_t
tileOf(const TtLayerConfig &cfg, size_t batch)
{
    const size_t fit = threadCount() * kWorkingSramBytes /
                       (workingBufferElems(cfg) * sizeof(T));
    return std::clamp(fit, size_t(1), batch);
}

/** Arena bytes of a session whose largest tile so far is @p tile. */
template <typename T>
size_t
tileArenaBytes(const TtLayerConfig &cfg, size_t tile)
{
    const size_t line = 64 / sizeof(T); // each half is 64-byte aligned
    const size_t half =
        (workingBufferElems(cfg) * tile + line - 1) / line * line;
    return 2 * half * sizeof(T);
}

/**
 * Batches that, on the current pool, run two full tiles and a ragged
 * one-sample tail (2 * tile + 1), and two line groups of several tiles
 * each plus a tail (2 * group + 1; the same batch once a tile spans a
 * cache line of x).
 */
template <typename T>
std::vector<size_t>
tileBatches(const TtLayerConfig &cfg)
{
    const size_t tile = tileOf<T>(cfg, 1024);
    const size_t line = 64 / sizeof(T);
    const size_t group = (line + tile - 1) / tile * tile;
    if (group == tile)
        return {2 * tile + 1};
    return {2 * tile + 1, 2 * group + 1};
}

/**
 * Run @p x through @p s as one batch, then every column alone through
 * runVec; every column must carry the same bits.
 */
template <typename T>
void
expectColumnsMatchBatchOne(InferSessionT<T> &s, const Matrix<T> &x,
                           const std::string &at)
{
    const TtLayerConfig &cfg = s.config();
    Matrix<T> y;
    s.runInto(x, y);
    EXPECT_EQ(s.arenaBytes(),
              tileArenaBytes<T>(cfg, tileOf<T>(cfg, x.cols())))
        << at;
    std::vector<T> xv(cfg.inSize()), yv;
    for (size_t b = 0; b < x.cols(); ++b) {
        for (size_t i = 0; i < xv.size(); ++i)
            xv[i] = x(i, b);
        s.runVec(xv, yv);
        size_t bad = 0;
        for (size_t i = 0; i < yv.size(); ++i)
            bad += std::memcmp(&yv[i], &y(i, b), sizeof(T)) != 0;
        EXPECT_EQ(bad, 0u) << at << " column " << b;
    }
}

TEST(InferSession, BatchTilesBitIdenticalToBatchOne)
{
    // On one thread VGG-FC7 tiles at 3 (f64), 6 (f32) and 12 (int16)
    // samples, on four at 4x that.
    ThreadCountGuard guard;
    Rng rng(59);
    const TtLayerConfig cfg = workloads::vggFc7();
    TtMatrix tt = TtMatrix::random(cfg, rng);
    const std::vector<MatrixF> fcores = floatCores(tt);
    TtMatrixFxp fxp = TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});
    SessionOptions exact, fast;
    exact.fast = simd::FastMode::Off;
    fast.fast = simd::FastMode::On;

    InferSessionD s64 = makeSession(tt);
    InferSessionF s32(layerView(cfg, fcores), exact);
    InferSessionF s32f(layerView(cfg, fcores), fast);
    InferSessionFxp s16(layerView(fxp));
    for (size_t threads : {size_t(1), size_t(4)}) {
        setThreadCount(threads);
        const std::string at = " threads " + std::to_string(threads);
        for (size_t batch : tileBatches<double>(cfg)) {
            MatrixD x(cfg.inSize(), batch);
            x.setUniform(rng);
            expectColumnsMatchBatchOne(
                s64, x, "f64 batch " + std::to_string(batch) + at);
        }
        for (size_t batch : tileBatches<float>(cfg)) {
            MatrixF x(cfg.inSize(), batch);
            x.setUniform(rng);
            const std::string b = " batch " + std::to_string(batch) + at;
            expectColumnsMatchBatchOne(s32, x, "f32 exact" + b);
            expectColumnsMatchBatchOne(s32f, x, "f32 fast" + b);
        }
        for (size_t batch : tileBatches<int16_t>(cfg)) {
            MatrixF xf(cfg.inSize(), batch);
            xf.setUniform(rng);
            expectColumnsMatchBatchOne(
                s16, quantizeMatrix(xf, FxpFormat{16, 8}),
                "int16 batch " + std::to_string(batch) + at);
        }
    }
}

TEST(InferSession, HoldsNoPerElementTables)
{
    // Building and warming a session needs its arena, packed cores and
    // group blocks, plus a few small vectors. A per-element offset table
    // (one size_t per transformed element, 1.6 MiB on FC6) or a staging
    // buffer would blow the 64 KiB slack.
    ThreadCountGuard guard;
    setThreadCount(1);
    Rng rng(47);
    const TtLayerConfig cfg = workloads::vggFc6();
    TtMatrix tt = TtMatrix::random(cfg, rng);
    const size_t batch = 8;
    MatrixD x(cfg.inSize(), batch), y(cfg.outSize(), batch);
    x.setUniform(rng);

    g_alloc_bytes.store(0);
    g_count_allocs.store(true);
    InferSessionD session = makeSession(tt);
    session.runInto(x, y);
    session.runInto(x, y);
    g_count_allocs.store(false);
    const uint64_t budget =
        session.arenaBytes() + session.packedBytes() + (64u << 10);
    EXPECT_LE(g_alloc_bytes.load(), budget)
        << "arena " << session.arenaBytes() << " packed + groups "
        << session.packedBytes();
}

TEST(InferSession, PackedBytesCountPackedCoresOnly)
{
    // Batch-1 runs allocate no group block, so what a session holds
    // outside its arena is its packed cores: packedAElems per float
    // stage and nothing for int16, which reads the core views. A
    // staging buffer that came back would show here.
    ThreadCountGuard guard;
    Rng rng(61);
    for (const TtLayerConfig &cfg :
         {workloads::vggFc7(), testConfigs()[2], testConfigs()[3]}) {
        TtMatrix tt = TtMatrix::random(cfg, rng);
        const std::vector<MatrixF> fcores = floatCores(tt);
        TtMatrixFxp fxp = TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});
        InferSessionD s64 = makeSession(tt);
        InferSessionF s32(layerView(cfg, fcores));
        InferSessionFxp s16(layerView(fxp));
        size_t elems = 0;
        for (size_t h = 1; h <= cfg.d(); ++h)
            elems += pack::packedAElems(cfg.coreRows(h), cfg.coreCols(h));
        for (size_t threads : {size_t(1), size_t(4)}) {
            setThreadCount(threads);
            std::vector<double> yd;
            std::vector<float> yf;
            std::vector<int16_t> yq;
            s64.runVec(std::vector<double>(cfg.inSize(), 0.5), yd);
            s32.runVec(std::vector<float>(cfg.inSize(), 0.5f), yf);
            s16.runVec(std::vector<int16_t>(cfg.inSize(), 64), yq);
            EXPECT_EQ(s64.packedBytes(), elems * sizeof(double))
                << cfg.toString();
            EXPECT_EQ(s32.packedBytes(), elems * sizeof(float))
                << cfg.toString();
            EXPECT_EQ(s16.packedBytes(), 0u) << cfg.toString();
        }
    }
}

TEST(InferSession, BitIdenticalToReferenceAcrossShapesBatchesThreads)
{
    ThreadCountGuard guard;
    Rng rng(42);
    for (const TtLayerConfig &cfg : testConfigs()) {
        TtMatrix tt = TtMatrix::random(cfg, rng);
        InferSessionD session = makeSession(tt);
        for (size_t batch : kSweepBatches) {
            MatrixD x(cfg.inSize(), batch);
            x.setUniform(rng);
            const MatrixD ref = referenceCompact(tt, x);
            for (size_t threads : {size_t(1), size_t(4)}) {
                setThreadCount(threads);
                MatrixD y;
                session.runInto(x, y);
                EXPECT_TRUE(y == ref)
                    << cfg.toString() << " batch " << batch
                    << " threads " << threads;
                EXPECT_TRUE(compactInfer(tt, x) == ref)
                    << "compactInfer wrapper";
            }
        }
    }
}

TEST(InferSession, FxpBitIdenticalToReference)
{
    ThreadCountGuard guard;
    Rng rng(7);
    for (const TtLayerConfig &cfg : testConfigs()) {
        TtMatrix tt = TtMatrix::random(cfg, rng);
        TtMatrixFxp fxp = TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});
        InferSessionFxp session(layerView(fxp));
        for (size_t batch : kSweepBatches) {
            MatrixF xf(cfg.inSize(), batch);
            xf.setUniform(rng);
            Matrix<int16_t> x = quantizeMatrix(xf, FxpFormat{16, 8});
            const Matrix<int16_t> ref = referenceCompactFxp(fxp, x);
            for (size_t threads : {size_t(1), size_t(4)}) {
                setThreadCount(threads);
                Matrix<int16_t> y;
                session.runInto(x, y);
                EXPECT_TRUE(y == ref)
                    << cfg.toString() << " batch " << batch
                    << " threads " << threads;
                EXPECT_TRUE(compactInferFxp(fxp, x) == ref)
                    << "compactInferFxp wrapper";
            }
        }
    }
}

TEST(InferSession, F32BitIdenticalToReference)
{
    ThreadCountGuard guard;
    Rng rng(13);
    for (const TtLayerConfig &cfg : testConfigs()) {
        const std::vector<MatrixF> cores =
            floatCores(TtMatrix::random(cfg, rng));
        SessionOptions exact; // bit-identity holds with TIE_FAST set too
        exact.fast = simd::FastMode::Off;
        InferSessionF session(layerView(cfg, cores), exact);
        for (size_t batch : kSweepBatches) {
            MatrixF x(cfg.inSize(), batch);
            x.setUniform(rng);
            const MatrixF ref = referenceCompactCores(cfg, cores, x);
            for (size_t threads : {size_t(1), size_t(4)}) {
                setThreadCount(threads);
                MatrixF y;
                session.runInto(x, y);
                EXPECT_TRUE(y == ref)
                    << cfg.toString() << " batch " << batch
                    << " threads " << threads;
            }
        }
    }
}

TEST(InferSession, RebindPicksUpUpdatedWeights)
{
    // Sessions are view-only: an owner that replaces its weights —
    // here a core Matrix's value, which reallocates its storage —
    // rebinds the session before the next run, as TtDense does in
    // training, and the run then serves the new weights.
    Rng rng(17);
    const TtLayerConfig cfg = testConfigs()[1];
    TtMatrix tt = TtMatrix::random(cfg, rng);
    InferSessionD session = makeSession(tt);

    MatrixD x(cfg.inSize(), 3);
    x.setUniform(rng);
    MatrixD y0;
    session.runInto(x, y0); // warm on the original weights

    const TtMatrix updated = TtMatrix::random(cfg, rng);
    for (size_t h = 1; h <= cfg.d(); ++h) {
        // Value-assign through the same TtCore objects the session
        // views; the fresh unfolded Matrix has fresh storage.
        tt.core(h) = updated.core(h);
    }
    session.rebind(layerView(tt));
    MatrixD y1;
    session.runInto(x, y1);
    EXPECT_TRUE(y1 == referenceCompact(updated, x))
        << "session served stale weights after a rebind";
    EXPECT_FALSE(y1 == y0);
}

/** A quantized N x batch input for an int16 session. */
Matrix<int16_t>
fxpInput(const TtLayerConfig &cfg, size_t batch, Rng &rng)
{
    MatrixF xf(cfg.inSize(), batch);
    xf.setUniform(rng, -1, 1);
    return quantizeMatrix(xf, FxpFormat{16, 8});
}

TEST(InferSession, RunVecMatchesBatchedColumn)
{
    Rng rng(3);
    const TtLayerConfig cfg = testConfigs()[1];
    TtMatrix tt = TtMatrix::random(cfg, rng);
    std::vector<double> x(cfg.inSize());
    for (auto &v : x)
        v = rng.uniform(-1.0, 1.0);

    InferSessionD session = makeSession(tt);
    std::vector<double> y;
    session.runVec(x, y, nullptr);

    const std::vector<double> ref = compactInferVec(tt, x);
    ASSERT_EQ(y.size(), cfg.outSize());
    EXPECT_EQ(y, ref);

    MatrixD xm(cfg.inSize(), 1, x);
    EXPECT_TRUE(MatrixD(cfg.outSize(), 1, y) ==
                referenceCompact(tt, xm));

    // int16: the same entry point on the fixed-point datapath.
    const TtMatrixFxp fxp = TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});
    InferSessionFxp s16(layerView(fxp));
    const Matrix<int16_t> xq = fxpInput(cfg, 1, rng);
    std::vector<int16_t> y16;
    s16.runVec(xq.flat(), y16, nullptr);
    ASSERT_EQ(y16.size(), cfg.outSize());
    EXPECT_TRUE(Matrix<int16_t>(cfg.outSize(), 1, y16) ==
                referenceCompactFxp(fxp, xq));
}

/** runPtr writes the bits runInto does, for any dtype. */
template <typename T>
void
expectRunPtrMatchesRunInto(InferSessionT<T> &session, const Matrix<T> &x,
                           const std::string &at)
{
    Matrix<T> y;
    session.runInto(x, y);
    std::vector<T> flat(session.config().outSize() * x.cols(), T(-1));
    session.runPtr(x.data(), x.cols(), flat.data());
    ASSERT_EQ(y.rows() * y.cols(), flat.size());
    EXPECT_EQ(0, std::memcmp(flat.data(), y.data(),
                             flat.size() * sizeof(T)))
        << at;
}

TEST(InferSession, RunPtrMatchesRunInto)
{
    Rng rng(19);
    for (const TtLayerConfig &cfg : testConfigs()) {
        TtMatrix tt = TtMatrix::random(cfg, rng);
        InferSessionD session = makeSession(tt);
        const TtMatrixFxp fxp =
            TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});
        InferSessionFxp s16(layerView(fxp));
        for (size_t batch : {size_t(1), size_t(9)}) {
            const std::string at =
                cfg.toString() + " batch " + std::to_string(batch);
            MatrixD x(cfg.inSize(), batch);
            x.setUniform(rng);
            expectRunPtrMatchesRunInto(session, x, "f64 " + at);
            expectRunPtrMatchesRunInto(s16, fxpInput(cfg, batch, rng),
                                       "int16 " + at);
        }
    }
}

TEST(InferSession, CaptureReproducesStageOperands)
{
    Rng rng(11);
    const TtLayerConfig cfg = testConfigs()[2]; // d = 4
    TtMatrix tt = TtMatrix::random(cfg, rng);
    const size_t batch = 5;
    MatrixD x(cfg.inSize(), batch);
    x.setUniform(rng);

    InferSessionD session = makeSession(tt);
    MatrixD y;
    std::vector<MatrixD> capture;
    session.runCapture(x, y, capture);

    EXPECT_TRUE(y == referenceCompact(tt, x));
    ASSERT_EQ(capture.size(), cfg.d());

    // Expected operands, walked exactly as the reference pipeline.
    CompactPlan plan(cfg);
    MatrixD op = plan.reshapeInput(x);
    for (size_t h = cfg.d(); h >= 1; --h) {
        EXPECT_TRUE(capture[h - 1] == op) << "stage " << h;
        MatrixD v = matmul(tt.core(h).unfolded(), op);
        if (h > 1)
            op = applyTransformBatched(makeStageTransform(cfg, h), v, batch);
    }
}

TEST(InferStatsConvention, StageMultsAreStageFirst)
{
    Rng rng(5);
    const TtLayerConfig cfg = testConfigs()[1]; // asymmetric, d = 3
    TtMatrix tt = TtMatrix::random(cfg, rng);
    const size_t batch = 7;
    MatrixD x(cfg.inSize(), batch);
    x.setUniform(rng);

    InferStats stats;
    compactInfer(tt, x, &stats);
    const std::vector<size_t> per = multCompactPerStage(cfg);
    ASSERT_EQ(stats.stage_mults.size(), cfg.d());
    ASSERT_EQ(per.size(), cfg.d());
    size_t total = 0;
    for (size_t h = 1; h <= cfg.d(); ++h) {
        // stage_mults[h-1] belongs to the GEMM using core G~_h.
        EXPECT_EQ(stats.stage_mults[h - 1],
                  cfg.coreRows(h) * cfg.coreCols(h) *
                      cfg.stageCols(h) * batch)
            << "stage " << h;
        EXPECT_EQ(stats.stage_mults[h - 1], per[h - 1] * batch);
        total += stats.stage_mults[h - 1];
    }
    EXPECT_EQ(stats.mults, total);
    EXPECT_EQ(stats.adds, total);
}

TEST(InferSession, ArenaMatchesWorkingBufferModel)
{
    Rng rng(9);
    std::vector<TtLayerConfig> cfgs = testConfigs();
    cfgs.push_back(workloads::vggFc7()); // tiles at 3 f64 samples
    for (const TtLayerConfig &cfg : cfgs) {
        TtMatrix tt = TtMatrix::random(cfg, rng);
        for (size_t batch : {size_t(1), size_t(8), size_t(13)}) {
            InferSessionD session = makeSession(tt);
            MatrixD x(cfg.inSize(), batch), y;
            x.setUniform(rng);
            session.runInto(x, y);
            // Two ping-pong halves, each one working-SRAM capacity
            // (cost_model.hh) scaled by the batch tile and rounded up
            // to whole 64-byte lines.
            const size_t tile = tileOf<double>(cfg, batch);
            EXPECT_EQ(session.arenaBytes(),
                      tileArenaBytes<double>(cfg, tile))
                << cfg.toString() << " batch " << batch;
            EXPECT_LE(session.arenaBytes(),
                      2 * std::max(threadCount() * kWorkingSramBytes,
                                   workingBufferElems(cfg) *
                                       sizeof(double) + 64))
                << cfg.toString() << " batch " << batch;
        }
    }
    // The benchmark shape: on one thread FC7 f64 batch 8 runs 3-sample
    // tiles in a 768 KiB arena, not the 2 MiB a whole-batch arena would
    // take.
    ThreadCountGuard guard;
    setThreadCount(1);
    EXPECT_EQ(tileOf<double>(workloads::vggFc7(), 8), 3u);
    EXPECT_EQ(tileArenaBytes<double>(workloads::vggFc7(), 3), 768u << 10);
}

TEST(InferSession, SteadyStateRunsDoNotHeapAllocate)
{
    ThreadCountGuard guard;
    setThreadCount(4); // exercise the pool's LoopBody path too
    Rng rng(17);
    const TtLayerConfig cfg = TtLayerConfig::uniform(3, 4, 4, 3);
    TtMatrix tt = TtMatrix::random(cfg, rng);
    InferSessionD session = makeSession(tt);

    const size_t batch = 64; // big enough to engage parallel kernels
    MatrixD x(cfg.inSize(), batch);
    x.setUniform(rng);
    MatrixD y;
    InferStats stats;
    std::vector<double> xv(cfg.inSize(), 0.25), yv;

    // Warm-up: arena + offset tables, y/yv shaping, stats capacity,
    // pool worker startup, registry lazy init.
    session.runInto(x, y, &stats);
    session.runInto(x, y, &stats);
    session.runVec(xv, yv, &stats);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 5; ++i)
        session.runInto(x, y, &stats);
    session.runVec(xv, yv, &stats);
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "steady-state float runs must not touch the heap";

    // Same guarantee on the fixed-point datapath, through every entry.
    TtMatrixFxp fxp = TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});
    InferSessionFxp fsession(layerView(fxp));
    MatrixF xf(cfg.inSize(), batch);
    xf.setUniform(rng);
    Matrix<int16_t> xq = quantizeMatrix(xf, FxpFormat{16, 8});
    Matrix<int16_t> yq;
    std::vector<int16_t> flat(cfg.outSize() * batch);
    std::vector<int16_t> xqv(cfg.inSize()), yqv;
    fsession.runInto(xq, yq, &stats);
    fsession.runInto(xq, yq, &stats);
    fsession.runPtr(xq.data(), batch, flat.data(), &stats);
    fsession.runVec(xqv, yqv, &stats);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 5; ++i) {
        fsession.runInto(xq, yq, &stats);
        fsession.runPtr(xq.data(), batch, flat.data(), &stats);
    }
    fsession.runVec(xqv, yqv, &stats);
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "steady-state fxp runs must not touch the heap";

    // A batch that spans several tiles: on four threads VGG-FC7 f64
    // runs batch 32 as tiles of 12, 12 and 8 samples through one
    // tile-sized arena.
    const TtLayerConfig fc7 = workloads::vggFc7();
    TtMatrix tt7 = TtMatrix::random(fc7, rng);
    InferSessionD s7 = makeSession(tt7);
    const size_t b7 = 32;
    MatrixD x7(fc7.inSize(), b7), y7;
    x7.setUniform(rng);
    std::vector<double> flat7(fc7.outSize() * b7);
    s7.runInto(x7, y7, &stats);
    s7.runPtr(x7.data(), b7, flat7.data(), &stats);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 5; ++i) {
        s7.runInto(x7, y7, &stats);
        s7.runPtr(x7.data(), b7, flat7.data(), &stats);
    }
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "steady-state multi-tile runs must not touch the heap";
    EXPECT_LT(tileOf<double>(fc7, b7), b7 / 2);
}

TEST(InferSession, PoolResizeAllocatesOnceThenSteadyStateIsFree)
{
    // Growing the pool adds panel slots, so the first run after a
    // resize may grow the slot scratch; every run after it must not
    // touch the heap.
    ThreadCountGuard guard;
    Rng rng(43);
    const TtLayerConfig cfg = TtLayerConfig::uniform(3, 4, 4, 3);
    TtMatrix tt = TtMatrix::random(cfg, rng);
    TtMatrixFxp fxp = TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});
    InferSessionD session = makeSession(tt);
    InferSessionFxp fsession(layerView(fxp));

    const size_t batch = 64; // several panels per gathered stage
    MatrixD x(cfg.inSize(), batch), y;
    x.setUniform(rng);
    MatrixF xf(cfg.inSize(), batch);
    xf.setUniform(rng);
    const Matrix<int16_t> xq = quantizeMatrix(xf, FxpFormat{16, 8});
    Matrix<int16_t> yq;

    setThreadCount(1);
    session.runInto(x, y);
    fsession.runInto(xq, yq);
    setThreadCount(4);
    session.runInto(x, y);
    fsession.runInto(xq, yq);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 5; ++i)
        session.runInto(x, y);
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "float runs after a pool resize must not touch the heap";

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 5; ++i)
        fsession.runInto(xq, yq);
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "fxp runs after a pool resize must not touch the heap";

    EXPECT_TRUE(y == referenceCompact(tt, x));
    EXPECT_TRUE(yq == referenceCompactFxp(fxp, xq));
}

TEST(InferSession, ObservabilityCountersTrackRuns)
{
    ThreadCountGuard guard;
    setThreadCount(1); // FC7 f64 tiles at 3 samples on one thread
    Rng rng(23);
    const TtLayerConfig cfg = testConfigs()[1]; // d = 3
    TtMatrix tt = TtMatrix::random(cfg, rng);
    InferSessionD session = makeSession(tt);

    obs::StatRegistry &reg = obs::StatRegistry::instance();
    obs::setEnabled(true);
    reg.resetAll();

    MatrixD x3(cfg.inSize(), 3), x5(cfg.inSize(), 5), y;
    x3.setUniform(rng);
    x5.setUniform(rng);
    // This layer fits whole batches in one tile, so the tile is the
    // batch.
    session.runInto(x3, y); // build (tile 3)
    session.runInto(x3, y); // cache hit
    session.runInto(x5, y); // rebuild (tile 5)

    // The cache is keyed on the tile: VGG-FC7 f64 runs batches 8 and
    // 3 as 3-sample tiles, so both reuse one arena.
    const TtLayerConfig fc7 = workloads::vggFc7();
    TtMatrix tt7 = TtMatrix::random(fc7, rng);
    InferSessionD s7 = makeSession(tt7);
    MatrixD x8(fc7.inSize(), 8), x7(fc7.inSize(), 3), y7;
    x8.setUniform(rng);
    x7.setUniform(rng);
    s7.runInto(x8, y7); // build (tile 3)
    s7.runInto(x7, y7); // cache hit
    obs::setEnabled(false);

    EXPECT_EQ(reg.counter("session.runs").value(), 5u);
    EXPECT_EQ(reg.counter("session.plan_builds").value(), 3u);
    EXPECT_EQ(reg.counter("session.plan_cache_hits").value(), 2u);
    EXPECT_EQ(static_cast<size_t>(
                  reg.gauge("session.arena_bytes").value()),
              s7.arenaBytes());
    reg.resetAll();
}

/** Saves and restores TIE_FAST around a test. */
struct FastEnvGuard
{
    std::string saved;
    bool was_set = false;

    FastEnvGuard()
    {
        const char *v = std::getenv("TIE_FAST");
        if (v != nullptr) {
            was_set = true;
            saved = v;
        }
    }

    ~FastEnvGuard()
    {
        if (was_set)
            setenv("TIE_FAST", saved.c_str(), 1);
        else
            unsetenv("TIE_FAST");
    }
};

TEST(FastMode, F64SessionsAreBitExactRegardless)
{
    // The fast path exists for f32 only: a double session must produce
    // identical bits with fast off, on, and resolved from TIE_FAST=1.
    FastEnvGuard guard;
    unsetenv("TIE_FAST");
    Rng rng(31);
    const TtLayerConfig cfg = testConfigs()[1];
    TtMatrix tt = TtMatrix::random(cfg, rng);
    InferSessionD exact = makeSession(tt);
    SessionOptions on;
    on.fast = simd::FastMode::On;
    InferSessionD fast = makeSession(tt, on);
    setenv("TIE_FAST", "1", 1);
    InferSessionD env = makeSession(tt); // default: FastMode::Env
    unsetenv("TIE_FAST");
    for (size_t batch : {size_t(1), size_t(64)}) {
        MatrixD x(cfg.inSize(), batch);
        x.setUniform(rng);
        MatrixD ye, yf, yv;
        exact.runInto(x, ye);
        fast.runInto(x, yf);
        env.runInto(x, yv);
        EXPECT_TRUE(yf == ye) << "explicit On, batch " << batch;
        EXPECT_TRUE(yv == ye) << "TIE_FAST=1, batch " << batch;
    }
}

TEST(FastMode, F32SessionFastStaysWithinAccuracyContract)
{
    // An f32 session with TIE_FAST on may differ from the exact chain,
    // but only within the documented per-element rounding bound —
    // checked here as a relative error far tighter than any consumer
    // of half-precision-ish activations could observe.
    FastEnvGuard guard;
    unsetenv("TIE_FAST");
    Rng rng(37);
    const TtLayerConfig cfg = testConfigs()[2]; // d = 4
    const std::vector<MatrixF> fcores =
        floatCores(TtMatrix::random(cfg, rng));
    InferSessionF exact(layerView(cfg, fcores));
    SessionOptions on;
    on.fast = simd::FastMode::On;
    InferSessionF fast(layerView(cfg, fcores), on);

    for (size_t batch : {size_t(1), size_t(64)}) {
        MatrixF x(cfg.inSize(), batch);
        x.setUniform(rng);
        MatrixF ye, yf;
        exact.runInto(x, ye);
        fast.runInto(x, yf);
        for (size_t i = 0; i < ye.rows(); ++i) {
            for (size_t j = 0; j < ye.cols(); ++j) {
                const double e = ye.at(i, j), f = yf.at(i, j);
                EXPECT_LE(std::fabs(f - e),
                          1e-4 * (std::fabs(e) + 1.0))
                    << i << "," << j << " batch " << batch;
            }
        }
    }
}

TEST(InferSession, FloatStagesKeepKernelObservability)
{
    // Each float stage is one kernel call for the gemm.* stats and the
    // simd.isa gauge, and observability changes no output bit.
    ThreadCountGuard guard;
    setThreadCount(1);
    Rng rng(67);
    const TtLayerConfig cfg = testConfigs()[3];
    TtMatrix tt = TtMatrix::random(cfg, rng);
    const std::vector<MatrixF> fcores = floatCores(tt);
    InferSessionD s64 = makeSession(tt);
    InferSessionF s32(layerView(cfg, fcores));
    const size_t batch = 7;
    MatrixD xd(cfg.inSize(), batch), yd_off, yd_on;
    MatrixF xf(cfg.inSize(), batch), yf_off, yf_on;
    xd.setUniform(rng);
    xf.setUniform(rng);
    s64.runInto(xd, yd_off);
    s32.runInto(xf, yf_off);

    obs::StatRegistry &reg = obs::StatRegistry::instance();
    obs::setEnabled(true);
    reg.resetAll();
    s64.runInto(xd, yd_on);
    s32.runInto(xf, yf_on);
    obs::setEnabled(false);

    uint64_t madds = 0;
    for (size_t h = 1; h <= cfg.d(); ++h)
        madds += cfg.coreRows(h) * cfg.coreCols(h) * cfg.stageCols(h) *
                 batch;
    EXPECT_EQ(reg.counter("gemm.calls").value(), 2 * cfg.d());
    EXPECT_EQ(reg.counter("gemm.madds").value(), 2 * madds);
    EXPECT_EQ(reg.distribution("gemm.call_us").snapshot().count,
              2 * cfg.d());
    EXPECT_EQ(reg.gauge("simd.isa").value(),
              static_cast<int64_t>(simd::activeIsa()));
    reg.resetAll();
    EXPECT_TRUE(yd_on == yd_off);
    EXPECT_TRUE(yf_on == yf_off);
}

TEST(InferSession, PackingCountersAndFootprintTrackWarmup)
{
    Rng rng(41);
    const TtLayerConfig cfg = testConfigs()[1]; // d = 3
    TtMatrix tt = TtMatrix::random(cfg, rng);

    obs::StatRegistry &reg = obs::StatRegistry::instance();
    obs::setEnabled(true);
    reg.resetAll();
    InferSessionD session = makeSession(tt); // packs d cores
    const uint64_t after_build = reg.counter("gemm.packed_panels").value();
    EXPECT_GE(after_build, cfg.d());
    EXPECT_GT(reg.counter("gemm.pack_bytes").value(), 0u);

    // Sessions are view-only: only rebind repacks, so runs pack
    // nothing and the counter stays put.
    MatrixD x(cfg.inSize(), 3), y;
    x.setUniform(rng);
    session.runInto(x, y);
    EXPECT_EQ(reg.counter("gemm.packed_panels").value(), after_build);
    obs::setEnabled(false);
    reg.resetAll();

    EXPECT_GT(session.packedBytes(), 0u);
}

// Earlier tests leave thread-pool workers running, and a "fast"
// death test forks the process with them alive; "threadsafe" re-executes
// the binary for the child, so these pass when the whole binary runs.

TEST(InferSessionFatal, InputRowsMismatchDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Rng rng(1);
    const TtLayerConfig cfg = testConfigs()[0];
    TtMatrix tt = TtMatrix::random(cfg, rng);
    InferSessionD session = makeSession(tt);
    MatrixD bad(cfg.inSize() + 1, 2), y;
    EXPECT_EXIT(session.runInto(bad, y), ::testing::ExitedWithCode(1),
                "input rows");
}

TEST(InferSessionFatal, RebindToAnotherConfigDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Rng rng(3);
    TtMatrix tt = TtMatrix::random(testConfigs()[0], rng);
    TtMatrix other = TtMatrix::random(testConfigs()[1], rng);
    InferSessionD session = makeSession(tt);
    EXPECT_EXIT(session.rebind(layerView(other)),
                ::testing::ExitedWithCode(1), "rebind to");
}

TEST(InferSessionFatal, MismatchedStageFormatsDie)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Rng rng(2);
    const TtLayerConfig cfg = testConfigs()[1];
    TtMatrix tt = TtMatrix::random(cfg, rng);
    TtMatrixFxp fxp = TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});
    fxp.stage_fmt[1].act_out.frac_bits += 1; // break the stage chain
    EXPECT_EXIT(InferSessionFxp bad(layerView(fxp)),
                ::testing::ExitedWithCode(1), "act_out format");
}

} // namespace
} // namespace tie
