/**
 * @file
 * The parallel execution layer: parallelFor index coverage under
 * adversarial chunk sizes, bit-identical matmul / matVec / fxpMatmul /
 * compactInfer results across thread counts (the determinism guarantee
 * of docs/performance.md), and regressions for the InferStats and
 * relativeError fixes.
 */

#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "quant/fxp.hh"
#include "tt/cost_model.hh"
#include "tt/tt_infer.hh"
#include "tt/tt_matrix.hh"

using namespace tie;

namespace {

/** Restores the ambient thread count when a test exits. */
class ThreadCountGuard
{
  public:
    ThreadCountGuard() : saved_(threadCount()) {}
    ~ThreadCountGuard() { setThreadCount(saved_); }

  private:
    size_t saved_;
};

TtLayerConfig
smallCfg()
{
    TtLayerConfig cfg;
    cfg.m = {2, 3, 2};
    cfg.n = {3, 2, 3};
    cfg.r = {1, 3, 2, 1};
    return cfg;
}

} // namespace

TEST(ResolveThreadCount, EnvWinsAndHardwareZeroFallsBackToOne)
{
    // Unset env: use the hardware count, but never 0 — some
    // implementations legitimately report hardware_concurrency() == 0.
    EXPECT_EQ(resolveThreadCount(nullptr, 8), 8u);
    EXPECT_EQ(resolveThreadCount(nullptr, 1), 1u);
    EXPECT_EQ(resolveThreadCount(nullptr, 0), 1u);

    // A valid TIE_THREADS overrides the hardware count entirely.
    EXPECT_EQ(resolveThreadCount("3", 8), 3u);
    EXPECT_EQ(resolveThreadCount("16", 0), 16u);
}

TEST(ResolveThreadCountFatal, MalformedEnvValueDies)
{
    // Silently ignoring a typo'd TIE_THREADS used to mask misconfigured
    // runs; it is a user error now.
    EXPECT_EXIT(resolveThreadCount("abc", 4),
                ::testing::ExitedWithCode(1), "TIE_THREADS");
    EXPECT_EXIT(resolveThreadCount("0", 4),
                ::testing::ExitedWithCode(1), "TIE_THREADS");
    EXPECT_EXIT(resolveThreadCount("-2", 4),
                ::testing::ExitedWithCode(1), "TIE_THREADS");
    EXPECT_EXIT(resolveThreadCount("4x", 4),
                ::testing::ExitedWithCode(1), "TIE_THREADS");
    EXPECT_EXIT(resolveThreadCount("", 4),
                ::testing::ExitedWithCode(1), "TIE_THREADS");
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadCountGuard guard;
    for (size_t nthreads : {size_t(1), size_t(2), size_t(3), size_t(7)}) {
        setThreadCount(nthreads);
        for (size_t n : {size_t(0), size_t(1), size_t(2), size_t(97),
                         size_t(1000)}) {
            for (size_t grain : {size_t(0), size_t(1), size_t(3),
                                 size_t(7), size_t(1000), size_t(5000)}) {
                std::vector<int> hits(n, 0);
                parallelFor(0, n, grain, [&](size_t lo, size_t hi) {
                    EXPECT_LE(lo, hi);
                    EXPECT_LE(hi, n);
                    for (size_t i = lo; i < hi; ++i)
                        ++hits[i];
                });
                for (size_t i = 0; i < n; ++i)
                    EXPECT_EQ(hits[i], 1)
                        << "threads=" << nthreads << " n=" << n
                        << " grain=" << grain << " i=" << i;
            }
        }
    }
}

TEST(ParallelFor, ReturnsOnlyAfterEveryChunkEndsAcrossResizes)
{
    // Workers started by a resize must not take the last finished job
    // for a new one: such a stale wake-up reports "done" twice, and
    // parallelFor could then return while another worker still runs a
    // chunk over caller-owned data.
    ThreadCountGuard guard;
    std::atomic<int> in_flight{0};
    int escaped = 0;
    for (int round = 0; round < 300; ++round) {
        setThreadCount(round % 2 ? 4 : 3);
        for (int job = 0; job < 2; ++job) {
            parallelFor(0, 64, 1, [&](size_t, size_t) {
                in_flight.fetch_add(1);
                volatile int spin = 0;
                for (int i = 0; i < 2000; ++i)
                    spin = spin + i;
                in_flight.fetch_sub(1);
            });
            escaped += in_flight.load() != 0;
        }
    }
    EXPECT_EQ(escaped, 0);
}

TEST(ParallelFor, NonZeroBeginAndEmptyRange)
{
    ThreadCountGuard guard;
    setThreadCount(3);

    std::vector<int> hits(100, 0);
    parallelFor(17, 83, 5, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            ++hits[i];
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], (i >= 17 && i < 83) ? 1 : 0) << i;

    bool ran = false;
    parallelFor(5, 5, 1, [&](size_t, size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelFor, NestedCallsRunInline)
{
    ThreadCountGuard guard;
    setThreadCount(4);
    std::vector<long> sums(32, 0);
    parallelFor(0, 32, 1, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            parallelFor(0, 50, 4, [&](size_t l2, size_t h2) {
                for (size_t j = l2; j < h2; ++j)
                    sums[i] += static_cast<long>(j);
            });
    });
    for (long s : sums)
        EXPECT_EQ(s, 1225);
}

TEST(ParallelFor, PropagatesBodyException)
{
    ThreadCountGuard guard;
    setThreadCount(4);
    EXPECT_THROW(
        parallelFor(0, 1000, 1,
                    [&](size_t lo, size_t) {
                        if (lo == 500)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
    // The pool is still usable afterwards.
    std::vector<int> hits(10, 0);
    parallelFor(0, 10, 1, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            ++hits[i];
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

/**
 * The semantic reference of matmul: the naive i-k-j loop, k ascending
 * per output element, separate multiply and add (the build compiles
 * with -ffp-contract=off).
 */
template <typename T>
Matrix<T>
naiveMatmul(const Matrix<T> &a, const Matrix<T> &b)
{
    Matrix<T> c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t kk = 0; kk < a.cols(); ++kk)
            for (size_t j = 0; j < b.cols(); ++j)
                c(i, j) += a(i, kk) * b(kk, j);
    return c;
}

template <typename T>
bool
sameBits(const Matrix<T> &x, const Matrix<T> &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           (x.size() == 0 ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

template <typename T>
void
checkMatmulAcrossThreadCounts()
{
    ThreadCountGuard guard;
    Rng rng(11);

    // Shapes exercise both partition axes (tall, wide, square) plus
    // empty, k = 0 and 1xN edge cases.
    const std::vector<std::pair<size_t, size_t>> shapes = {
        {0, 0},  {1, 1},   {1, 64},  {64, 1},
        {5, 200}, {200, 5}, {48, 48}, {37, 600}};
    for (auto [m, n] : shapes) {
        for (size_t k : {(m + n) % 37 + 1, size_t(0)}) {
            Matrix<T> a(m, k), b(k, n);
            a.setNormal(rng);
            b.setNormal(rng);

            const Matrix<T> ref = naiveMatmul(a, b);
            for (size_t nthreads : {size_t(1), size_t(2), size_t(7)}) {
                setThreadCount(nthreads);
                EXPECT_TRUE(sameBits(matmul(a, b), ref))
                    << sizeof(T) << "-byte " << m << "x" << k << "*" << k
                    << "x" << n << " threads=" << nthreads;
            }
        }
    }
}

TEST(ParallelKernels, MatmulBitIdenticalAcrossThreadCounts)
{
    checkMatmulAcrossThreadCounts<double>();
    checkMatmulAcrossThreadCounts<float>();
}

TEST(ParallelKernels, MatVecBitIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    Rng rng(12);
    MatrixD a(301, 173);
    a.setNormal(rng);
    std::vector<double> x(173);
    for (auto &v : x)
        v = rng.normal();

    setThreadCount(1);
    const std::vector<double> ref = matVec(a, x);
    for (size_t nthreads : {size_t(2), size_t(7)}) {
        setThreadCount(nthreads);
        EXPECT_EQ(matVec(a, x), ref) << "threads=" << nthreads;
    }
}

TEST(ParallelKernels, FxpMatmulBitIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    Rng rng(13);
    MacFormat fmt;

    const std::vector<std::pair<size_t, size_t>> shapes = {
        {1, 300}, {300, 1}, {17, 190}, {64, 64}};
    for (auto [m, n] : shapes) {
        const size_t k = 33;
        MatrixF wf(m, k), xf(k, n);
        wf.setUniform(rng, -1, 1);
        xf.setUniform(rng, -1, 1);
        auto w = quantizeMatrix(wf, fmt.weight);
        auto x = quantizeMatrix(xf, fmt.act_in);

        setThreadCount(1);
        Matrix<int16_t> ref = fxpMatmul(w, x, fmt);
        for (size_t nthreads : {size_t(2), size_t(7)}) {
            setThreadCount(nthreads);
            EXPECT_TRUE(fxpMatmul(w, x, fmt) == ref)
                << m << "x" << n << " threads=" << nthreads;
        }
    }
}

TEST(ParallelKernels, CompactInferBitIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    Rng rng(14);
    TtMatrix tt = TtMatrix::random(smallCfg(), rng);
    MatrixD x(smallCfg().inSize(), 32);
    x.setNormal(rng);

    setThreadCount(1);
    MatrixD ref = compactInfer(tt, x);
    for (size_t nthreads : {size_t(2), size_t(7)}) {
        setThreadCount(nthreads);
        EXPECT_TRUE(compactInfer(tt, x) == ref)
            << "threads=" << nthreads;
    }
}

TEST(InferStatsFix, ReusedStructIsResetByEveryScheme)
{
    Rng rng(15);
    TtMatrix tt = TtMatrix::random(smallCfg(), rng);
    std::vector<double> x(smallCfg().inSize(), 1.0);

    // Seed the struct with garbage, then reuse it across schemes the
    // way the bench binaries do.
    InferStats stats;
    stats.mults = 999999;
    stats.adds = 999999;
    stats.stage_mults = {1, 2, 3, 4, 5};

    naiveInfer(tt, x, &stats);
    EXPECT_EQ(stats.mults, multNaive(smallCfg()));
    EXPECT_GT(stats.adds, 0u);
    EXPECT_TRUE(stats.stage_mults.empty()) << "stale stage_mults kept";

    stats.stage_mults = {1, 2, 3, 4, 5};
    stats.adds = 999999;
    partialParallelInfer(tt, x, &stats);
    EXPECT_EQ(stats.mults, multPartialParallel(smallCfg()));
    EXPECT_GT(stats.adds, 0u);
    EXPECT_NE(stats.adds, 999999u) << "stale adds kept";
    EXPECT_TRUE(stats.stage_mults.empty()) << "stale stage_mults kept";

    compactInferVec(tt, x, &stats);
    EXPECT_EQ(stats.mults, multCompact(smallCfg()));
    EXPECT_EQ(stats.adds, stats.mults);
    EXPECT_EQ(stats.stage_mults.size(), smallCfg().d());
}

TEST(InferStatsFix, FxpPathResetsAndPopulatesStats)
{
    Rng rng(16);
    TtMatrix tt = TtMatrix::random(smallCfg(), rng);
    FxpFormat act{16, 8};
    TtMatrixFxp ttq = TtMatrixFxp::quantizeAuto(tt, act, 8);

    MatrixF xf(smallCfg().inSize(), 2);
    xf.setUniform(rng, -1, 1);
    Matrix<int16_t> xq = quantizeMatrix(xf, act);

    InferStats stats;
    stats.mults = 999999;
    stats.adds = 999999;
    stats.stage_mults = {7, 7, 7, 7};
    compactInferFxp(ttq, xq, &stats);
    EXPECT_GT(stats.mults, 0u);
    EXPECT_NE(stats.mults, 999999u);
    EXPECT_EQ(stats.adds, stats.mults);
    EXPECT_EQ(stats.stage_mults.size(), smallCfg().d());
}

TEST(RelativeErrorFix, NonZeroVsZeroReferenceIsInfinite)
{
    MatrixD zero(2, 2);
    MatrixD big(2, 2);
    big(0, 0) = 1e9;

    EXPECT_EQ(relativeError(zero, zero), 0.0);
    EXPECT_TRUE(std::isinf(relativeError(big, zero)));
    EXPECT_GT(relativeError(big, zero), 0.0);
    // The normal path is untouched.
    MatrixD a(1, 1, {1.1});
    MatrixD b(1, 1, {1.0});
    EXPECT_NEAR(relativeError(a, b), 0.1, 1e-12);
}
