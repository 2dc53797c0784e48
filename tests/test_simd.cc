/**
 * @file
 * Tests for the SIMD kernel layer (linalg/simd.hh, quant/fxp_simd.hh):
 * TIE_SIMD resolution, and the determinism contract — every supported
 * ISA must be bit-identical to the scalar reference for the float,
 * double and fixed-point kernels, including remainder columns and
 * unaligned block starts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "linalg/gemm.hh"
#include "linalg/pack.hh"
#include "linalg/simd.hh"
#include "quant/fxp.hh"
#include "quant/fxp_simd.hh"

namespace tie {
namespace {

using simd::Isa;

/** Every ISA this build + host can actually execute. */
std::vector<Isa>
supportedIsas()
{
    std::vector<Isa> out;
    for (Isa isa : simd::kIsas) {
        if (simd::isaSupported(isa))
            out.push_back(isa);
    }
    return out;
}

constexpr unsigned kAll = 0x1f; // synthetic mask: everything supported
constexpr unsigned
bit(Isa isa)
{
    return 1u << static_cast<unsigned>(isa);
}

TEST(SimdResolve, EmptyPicksBestSupported)
{
    EXPECT_EQ(simd::resolveIsa(nullptr, kAll), Isa::Avx512);
    EXPECT_EQ(simd::resolveIsa("", kAll), Isa::Avx512);
    EXPECT_EQ(simd::resolveIsa(nullptr, kAll & ~bit(Isa::Avx512)), Isa::Avx2);
    EXPECT_EQ(simd::resolveIsa(nullptr, bit(Isa::Scalar) | bit(Isa::Neon)),
              Isa::Neon);
    EXPECT_EQ(simd::resolveIsa(nullptr, bit(Isa::Scalar)), Isa::Scalar);
}

TEST(SimdResolve, ExplicitNamesResolve)
{
    EXPECT_EQ(simd::resolveIsa("scalar", kAll), Isa::Scalar);
    EXPECT_EQ(simd::resolveIsa("avx2", kAll), Isa::Avx2);
    EXPECT_EQ(simd::resolveIsa("neon", kAll), Isa::Neon);
    EXPECT_EQ(simd::resolveIsa("avx512", kAll), Isa::Avx512);
    // scalar is always supported, even with a bare mask.
    EXPECT_EQ(simd::resolveIsa("scalar", bit(Isa::Scalar)), Isa::Scalar);
}

TEST(SimdResolve, UnsupportedRequestIsFatal)
{
    EXPECT_EXIT(simd::resolveIsa("avx2", bit(Isa::Scalar)),
                ::testing::ExitedWithCode(1), "not supported");
    EXPECT_EXIT(simd::resolveIsa("neon", bit(Isa::Scalar) | bit(Isa::Avx2)),
                ::testing::ExitedWithCode(1), "not supported");
    EXPECT_EXIT(
        simd::resolveIsa("avx512", bit(Isa::Scalar) | bit(Isa::Avx2)),
        ::testing::ExitedWithCode(1), "not supported");
}

TEST(SimdResolve, MalformedValueIsFatal)
{
    EXPECT_EXIT(simd::resolveIsa("AVX2", kAll),
                ::testing::ExitedWithCode(1),
                "must be avx512, avx2, neon or scalar");
    EXPECT_EXIT(simd::resolveIsa("AVX512", kAll),
                ::testing::ExitedWithCode(1),
                "must be avx512, avx2, neon or scalar");
    // The retired SSE4.2 path is refused like any unknown name.
    EXPECT_EXIT(simd::resolveIsa("sse", kAll),
                ::testing::ExitedWithCode(1),
                "must be avx512, avx2, neon or scalar");
}

TEST(SimdResolve, ActiveIsaIsSupportedAndStable)
{
    const Isa isa = simd::activeIsa();
    EXPECT_TRUE(simd::isaSupported(isa));
    EXPECT_EQ(simd::activeIsa(), isa);
}

TEST(SimdResolve, FastModeResolves)
{
    using simd::FastMode;
    EXPECT_EQ(simd::resolveFastMode(nullptr), FastMode::Off);
    EXPECT_EQ(simd::resolveFastMode(""), FastMode::Off);
    EXPECT_EQ(simd::resolveFastMode("0"), FastMode::Off);
    EXPECT_EQ(simd::resolveFastMode("1"), FastMode::On);
    // Explicit requests pass through the env-resolving overload
    // untouched, whatever TIE_FAST says.
    EXPECT_EQ(simd::resolveFastMode(FastMode::Off), FastMode::Off);
    EXPECT_EQ(simd::resolveFastMode(FastMode::On), FastMode::On);
}

TEST(SimdResolve, FastModeMalformedIsFatal)
{
    EXPECT_EXIT(simd::resolveFastMode("2"),
                ::testing::ExitedWithCode(1), "must be 0 or 1");
    EXPECT_EXIT(simd::resolveFastMode("on"),
                ::testing::ExitedWithCode(1), "must be 0 or 1");
    EXPECT_EXIT(simd::resolveFastMode("true"),
                ::testing::ExitedWithCode(1), "must be 0 or 1");
    // The Env path applies the same strictness to the live variable
    // (set inside the death-test child only).
    EXPECT_EXIT(
        {
            setenv("TIE_FAST", "bogus", 1);
            simd::resolveFastMode(simd::FastMode::Env);
        },
        ::testing::ExitedWithCode(1), "must be 0 or 1");
}

TEST(SimdResolve, MaskAndLanesAreConsistent)
{
    EXPECT_TRUE(simd::supportedMask() & bit(Isa::Scalar));
    EXPECT_EQ(simd::floatLanes(Isa::Scalar), 1u);
    EXPECT_EQ(simd::floatLanes(Isa::Avx2), 8u);
    EXPECT_EQ(simd::fxpLanes(Isa::Neon), 4u);
    EXPECT_EQ(simd::floatLanes(Isa::Avx512), 16u);
    EXPECT_EQ(simd::fxpLanes(Isa::Avx512), 16u);
    for (Isa isa : supportedIsas())
        EXPECT_STRNE(simd::isaName(isa), "");
}

// ---------------------------------------------------------------------
// Float / double GEMM operands and the naive reference loop.
// ---------------------------------------------------------------------

template <typename T>
std::vector<T>
randomBuf(size_t count, Rng &rng)
{
    std::vector<T> out(count);
    for (auto &v : out)
        v = static_cast<T>(rng.uniform(-2.0, 2.0));
    return out;
}

// Shapes chosen to exercise full vectors, remainder columns for every
// lane width (8/4/1) and degenerate edges.
struct Shape
{
    size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},  {2, 3, 5},   {4, 8, 7},  {3, 16, 8},   {5, 7, 9},
    {8, 4, 16}, {2, 130, 33}, {16, 9, 64}, {1, 5, 257},
};

/**
 * The semantic reference of every float GEMM path: C[i0:i1, j0:j1) +=
 * A * B over row-major A (m x k), B (k x n), C (m x n) as the naive
 * i-k-j loop — k ascending per output element, separate multiply and
 * add (the build compiles with -ffp-contract=off).
 */
template <typename T>
void
naiveGemm(size_t n, size_t k, const T *a, const T *b, T *c, size_t i0,
          size_t i1, size_t j0, size_t j1)
{
    for (size_t i = i0; i < i1; ++i)
        for (size_t kk = 0; kk < k; ++kk) {
            const T aik = a[i * k + kk];
            for (size_t j = j0; j < j1; ++j)
                c[i * n + j] += aik * b[kk * n + j];
        }
}

// ---------------------------------------------------------------------
// Packed-panel microkernel, the one float GEMM kernel family: the
// default path must be bit-identical to the naive loop on every ISA
// (packed == naive), for every shape, panel split and batch; TIE_FAST
// only bends f32 within the documented bound.
// ---------------------------------------------------------------------

template <typename T>
void
packedGemm(Isa isa, bool fast, size_t k, const T *pa, const T *b,
           size_t ldb, T *c, size_t ldc, size_t i0, size_t i1,
           size_t j0, size_t j1)
{
    if constexpr (std::is_same_v<T, float>)
        simd::gemmPackedF32(isa, fast, k, pa, b, ldb, c, ldc, i0, i1,
                            j0, j1);
    else
        simd::gemmPackedF64(isa, fast, k, pa, b, ldb, c, ldc, i0, i1,
                            j0, j1);
}

template <typename T>
void
checkPackedBitIdentity()
{
    Rng rng(0x9acc);
    for (const Shape &s : kShapes) {
        const auto a = randomBuf<T>(s.m * s.k, rng);
        const auto b = randomBuf<T>(s.k * s.n, rng);
        std::vector<T> ref(s.m * s.n, T(0));
        naiveGemm(s.n, s.k, a.data(), b.data(), ref.data(), 0, s.m, 0,
                  s.n);
        std::vector<T> pa(pack::packedAElems(s.m, s.k));
        pack::packA(s.m, s.k, a.data(), pa.data());
        for (Isa isa : supportedIsas()) {
            std::vector<T> c(s.m * s.n, T(0));
            packedGemm<T>(isa, false, s.k, pa.data(), b.data(), s.n,
                          c.data(), s.n, 0, s.m, 0, s.n);
            EXPECT_EQ(std::memcmp(c.data(), ref.data(),
                                  c.size() * sizeof(T)),
                      0)
                << simd::isaName(isa) << " " << s.m << "x" << s.k << "x"
                << s.n;
        }
    }
}

template <typename T>
void
checkStagedTilesOnEveryIsa()
{
    // The packed kernel per panel of a row-major B (the stage-d input),
    // on every ISA: read B in place (ldb = n) into a zeroed
    // kColBlock-wide tile (ldc = kColBlock), then copy the tile out.
    // n spans a full and a ragged panel.
    Rng rng(0x6a7);
    const size_t m = 5, k = 12, n = 315;
    const auto a = randomBuf<T>(m * k, rng);
    const auto b = randomBuf<T>(k * n, rng);
    std::vector<T> ref(m * n, T(0));
    naiveGemm(n, k, a.data(), b.data(), ref.data(), 0, m, 0, n);

    std::vector<T> pa(pack::packedAElems(m, k));
    pack::packA(m, k, a.data(), pa.data());
    std::vector<T> tile(m * gemm::kColBlock);
    for (Isa isa : supportedIsas()) {
        std::vector<T> c(m * n, T(0));
        for (size_t p0 = 0; p0 < n; p0 += gemm::kColBlock) {
            const size_t w = std::min(gemm::kColBlock, n - p0);
            std::fill(tile.begin(), tile.end(), T(0));
            packedGemm<T>(isa, false, k, pa.data(), b.data() + p0, n,
                          tile.data(), gemm::kColBlock, 0, m, 0, w);
            for (size_t i = 0; i < m; ++i)
                std::copy_n(tile.data() + i * gemm::kColBlock, w,
                            c.data() + i * n + p0);
        }
        EXPECT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(T)),
                  0)
            << simd::isaName(isa);
    }
}

TEST(SimdGemm, StagedTilesMatchDenseOnEveryIsa)
{
    checkStagedTilesOnEveryIsa<float>();
    checkStagedTilesOnEveryIsa<double>();
}

TEST(SimdPacked, F32BitIdenticalToScalarOnEveryIsa)
{
    checkPackedBitIdentity<float>();
}

TEST(SimdPacked, F64BitIdenticalToScalarOnEveryIsa)
{
    checkPackedBitIdentity<double>();
}

template <typename T>
void
checkPackedWindows()
{
    // Panel-aligned i0 with i1 ending mid-panel, plus column windows
    // one short of, at, one past and two tiles past the widest
    // register tiles (16 doubles, 32 floats) from j0 = 0 and from
    // j0 off every lane boundary; nothing outside the window may move.
    Rng rng(0x9acd + sizeof(T));
    const size_t m = 11, k = 13, n = 13 + 65; // 2 full panels + 3 rows
    const auto a = randomBuf<T>(m * k, rng);
    const auto b = randomBuf<T>(k * n, rng);
    std::vector<T> pa(pack::packedAElems(m, k));
    pack::packA(m, k, a.data(), pa.data());
    for (size_t i0 : {size_t(0), size_t(4), size_t(8)}) {
        for (size_t i1 : {i0 + 1, i0 + 3, m}) {
            for (size_t j0 : {size_t(0), size_t(1), size_t(13)}) {
                for (size_t width : {15, 16, 17, 31, 32, 33, 65}) {
                    const size_t j1 = j0 + width;
                    std::vector<T> ref(m * n, T(-7)), c(m * n, T(-7));
                    naiveGemm(n, k, a.data(), b.data(), ref.data(), i0,
                              i1, j0, j1);
                    for (Isa isa : supportedIsas()) {
                        std::fill(c.begin(), c.end(), T(-7));
                        packedGemm<T>(isa, false, k, pa.data(), b.data(),
                                      n, c.data(), n, i0, i1, j0, j1);
                        EXPECT_EQ(std::memcmp(c.data(), ref.data(),
                                              c.size() * sizeof(T)),
                                  0)
                            << simd::isaName(isa) << " " << sizeof(T)
                            << "-byte i0=" << i0 << " i1=" << i1
                            << " j0=" << j0 << " width=" << width;
                    }
                }
            }
        }
    }
}

TEST(SimdPacked, UnalignedWindowsAndPanelSplitsMatchScalar)
{
    checkPackedWindows<float>();
    checkPackedWindows<double>();
}

TEST(SimdPacked, PackALayoutZeroFillsLastPanel)
{
    // The documented layout, including the zero rows that pad the last
    // panel; the buffer starts as NaN so a skipped fill shows.
    const size_t m = 6, k = 3, rows = 8; // two panels, 2 padded rows
    std::vector<double> a(m * k);
    for (size_t e = 0; e < a.size(); ++e)
        a[e] = double(e + 1);
    std::vector<double> pa(pack::packedAElems(m, k), std::nan(""));
    ASSERT_EQ(pa.size(), rows * k);
    pack::packA(m, k, a.data(), pa.data());
    for (size_t i = 0; i < rows; ++i)
        for (size_t kk = 0; kk < k; ++kk)
            EXPECT_EQ(pa[i / pack::kRowPanel * pack::kRowPanel * k +
                         kk * pack::kRowPanel + i % pack::kRowPanel],
                      i < m ? a[i * k + kk] : 0.0)
                << "row " << i << " k " << kk;
}

template <typename T>
void
checkPackedBlockedMatchesNaive(size_t m, size_t n, size_t k)
{
    Rng rng(0x9ace + m + n + k);
    const auto a = randomBuf<T>(m * k, rng);
    const auto b = randomBuf<T>(k * n, rng);
    std::vector<T> ref(m * n, T(0)), c(m * n, T(0));
    naiveGemm(n, k, a.data(), b.data(), ref.data(), 0, m, 0, n);
    std::vector<T> pa(pack::packedAElems(m, k));
    pack::packA(m, k, a.data(), pa.data());
    gemm::gemmPackedBlocked(m, n, k, pa.data(), b.data(), c.data(),
                            false);
    EXPECT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(T)),
              0)
        << m << "x" << k << "x" << n;
}

TEST(SimdPacked, BlockedWrapperMatchesUnpacked)
{
    // Against the naive loop: below and above the kParallelMinWork
    // threshold, row- and column-dominant splits, partial row panels
    // (m % kRowPanel != 0), a single column, and a deep k (300).
    for (auto [m, n, k] : {std::array<size_t, 3>{5, 9, 7},
                           {64, 96, 64},
                           {17, 1031, 33},
                           {7, 1, 300},
                           {300, 1, 9},
                           {1, 1, 1},
                           {33, 40, 300},
                           {6, 517, 129}}) {
        checkPackedBlockedMatchesNaive<float>(m, n, k);
        checkPackedBlockedMatchesNaive<double>(m, n, k);
    }
}

template <typename T>
void
checkPackedStagedMatchesBlocked(size_t batch)
{
    Rng rng(0x9acf + batch);
    const size_t m = 6, k = 12, n = 21 * batch;
    const auto a = randomBuf<T>(m * k, rng);
    const auto b = randomBuf<T>(k * n, rng);

    std::vector<T> pa(pack::packedAElems(m, k));
    pack::packA(m, k, a.data(), pa.data());
    std::vector<T> ref(m * n, T(0));
    gemm::gemmPackedBlocked(m, n, k, pa.data(), b.data(), ref.data(),
                            false);
    // B row-major, and the same B in kColBlock column panels.
    std::vector<T> bp(k * n);
    for (size_t kk = 0; kk < k; ++kk)
        for (size_t j = 0; j < n; ++j)
            bp[gemm::panelOffset(k, n, gemm::kColBlock, kk, j)] =
                b[kk * n + j];
    for (size_t threads : {size_t(1), size_t(4)}) {
        setThreadCount(threads);
        for (size_t bpanel : {n, gemm::kColBlock}) {
            // The identity store: row-major C, stored from zero.
            std::vector<T> c(m * n, T(-7));
            gemm::StageOut<T> out;
            out.dst = c.data();
            out.ld = n;
            gemm::gemmPackedStage(m, n, k, pa.data(),
                                  bpanel == n ? b.data() : bp.data(),
                                  bpanel, false, out);
            EXPECT_EQ(
                std::memcmp(c.data(), ref.data(), c.size() * sizeof(T)), 0)
                << "batch=" << batch << " threads=" << threads
                << " panel=" << bpanel;
        }
    }
}

TEST(SimdPacked, StagedMatchesBlockedForEveryBatch)
{
    // batch 37 and 64 push n past kColBlock: several panels, parallel
    // slots at 4 threads, and (37) a ragged last panel. The output
    // starts as garbage, so a stage kernel that adds onto it shows.
    const size_t ambient = threadCount();
    for (size_t batch : {size_t(1), size_t(7), size_t(37), size_t(64)}) {
        checkPackedStagedMatchesBlocked<float>(batch);
        checkPackedStagedMatchesBlocked<double>(batch);
    }
    setThreadCount(ambient);
}

TEST(SimdPacked, FastModeF32WithinDocumentedBound)
{
    // TIE_FAST accuracy contract (docs/performance.md): per output
    // element, |fast - exact| is bounded by the classic dot-product
    // error gamma_k * sum(|a| |b|) with gamma_k = k*eps / (1 - k*eps),
    // eps = 2^-24, times a small safety factor. Checked against an
    // f64 reference so the bound covers both the exact and the fused
    // chain.
    Rng rng(0xfa57);
    const size_t m = 8, k = 512, n = 64;
    const auto a = randomBuf<float>(m * k, rng);
    const auto b = randomBuf<float>(k * n, rng);
    std::vector<double> refd(m * n, 0.0), absd(m * n, 0.0);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double acc = 0.0, mag = 0.0;
            for (size_t kk = 0; kk < k; ++kk) {
                const double p = double(a[i * k + kk]) *
                                 double(b[kk * n + j]);
                acc += p;
                mag += std::fabs(p);
            }
            refd[i * n + j] = acc;
            absd[i * n + j] = mag;
        }
    }
    const double eps = std::ldexp(1.0, -24);
    const double gamma = k * eps / (1.0 - k * eps);
    std::vector<float> pa(pack::packedAElems(m, k));
    pack::packA(m, k, a.data(), pa.data());
    // Indexed by Isa value, which has a retired gap (1): size by the
    // largest value, not by the kIsas entry count.
    std::vector<float> fast_bits[static_cast<size_t>(Isa::Avx512) + 1];
    for (Isa isa : supportedIsas()) {
        for (bool fast : {false, true}) {
            std::vector<float> c(m * n, 0.0f);
            simd::gemmPackedF32(isa, fast, k, pa.data(), b.data(), n,
                                c.data(), n, 0, m, 0, n);
            for (size_t e = 0; e < m * n; ++e) {
                const double bound = 4.0 * gamma * absd[e] +
                                     std::fabs(refd[e]) * 4.0 * eps;
                EXPECT_LE(std::fabs(double(c[e]) - refd[e]), bound)
                    << simd::isaName(isa) << " fast=" << fast
                    << " elem " << e;
            }
            if (fast)
                fast_bits[static_cast<size_t>(isa)] = c;
        }
    }
    // Every lane fuses the same chain, so the 512- and 256-bit fused
    // kernels agree bit for bit.
    const auto &avx2 = fast_bits[static_cast<size_t>(Isa::Avx2)];
    const auto &avx512 = fast_bits[static_cast<size_t>(Isa::Avx512)];
    if (!avx512.empty()) {
        EXPECT_EQ(avx512, avx2);
    }
}

TEST(SimdPacked, FastModeNeverChangesF64)
{
    // f64 has no fast path: fast=true must be bit-identical to
    // fast=false on every ISA.
    Rng rng(0xfa58);
    const size_t m = 7, k = 33, n = 19;
    const auto a = randomBuf<double>(m * k, rng);
    const auto b = randomBuf<double>(k * n, rng);
    std::vector<double> pa(pack::packedAElems(m, k));
    pack::packA(m, k, a.data(), pa.data());
    for (Isa isa : supportedIsas()) {
        std::vector<double> exact(m * n, 0.0), fast(m * n, 0.0);
        simd::gemmPackedF64(isa, false, k, pa.data(), b.data(), n,
                            exact.data(), n, 0, m, 0, n);
        simd::gemmPackedF64(isa, true, k, pa.data(), b.data(), n,
                            fast.data(), n, 0, m, 0, n);
        EXPECT_EQ(std::memcmp(exact.data(), fast.data(),
                              exact.size() * sizeof(double)),
                  0)
            << simd::isaName(isa);
    }
}

// ---------------------------------------------------------------------
// Fixed-point MAC chain bit-identity.
// ---------------------------------------------------------------------

std::vector<int16_t>
randomI16(size_t count, Rng &rng, int16_t lo = -32768, int16_t hi = 32767)
{
    std::vector<int16_t> out(count);
    for (auto &v : out)
        v = static_cast<int16_t>(rng.intIn(lo, hi));
    return out;
}

void
checkFxpBitIdentity(const MacFormat &fmt, uint64_t seed)
{
    Rng rng(seed);
    for (const Shape &s : kShapes) {
        const auto w = randomI16(s.m * s.k, rng);
        const auto x = randomI16(s.k * s.n, rng);
        std::vector<int16_t> ref(s.m * s.n, 0);
        fxpBlock(Isa::Scalar, s.k, s.n, s.n, w.data(), x.data(), fmt,
                 ref.data(), 0, s.m, 0, s.n);
        // The same operand with a padded row stride, written into a
        // wider output: ldx != ldo, as for a gathered column panel.
        const size_t ldx = s.n + 3, ldo = s.n + 5;
        std::vector<int16_t> xs(s.k * ldx, 0);
        for (size_t kk = 0; kk < s.k; ++kk)
            std::copy_n(x.data() + kk * s.n, s.n, xs.data() + kk * ldx);
        for (Isa isa : supportedIsas()) {
            std::vector<int16_t> out(s.m * s.n, 0);
            fxpBlock(isa, s.k, s.n, s.n, w.data(), x.data(), fmt,
                     out.data(), 0, s.m, 0, s.n);
            EXPECT_EQ(out, ref)
                << simd::isaName(isa) << " " << s.m << "x" << s.k << "x"
                << s.n;
            for (size_t j0 : {size_t(0), size_t(1)}) {
                if (j0 >= s.n)
                    continue;
                std::vector<int16_t> so(s.m * ldo, 99);
                fxpBlock(isa, s.k, ldx, ldo, w.data(), xs.data(), fmt,
                         so.data(), 0, s.m, j0, s.n);
                for (size_t i = 0; i < s.m; ++i)
                    for (size_t j = 0; j < ldo; ++j)
                        ASSERT_EQ(so[i * ldo + j],
                                  j >= j0 && j < s.n ? ref[i * s.n + j]
                                                     : int16_t(99))
                            << simd::isaName(isa) << " strided " << s.m
                            << "x" << s.k << "x" << s.n << " j0=" << j0
                            << " (" << i << "," << j << ")";
            }
        }
    }
}

TEST(SimdFxp, DefaultFormatBitIdenticalOnEveryIsa)
{
    MacFormat fmt; // the TIE datapath: 24-bit acc, 8-bit product shift
    ASSERT_TRUE(fxpSimdEligible(fmt));
    checkFxpBitIdentity(fmt, 0xf1);
}

TEST(SimdFxp, SaturatingFormatsBitIdenticalOnEveryIsa)
{
    // Narrow accumulator + no product shift: saturation fires
    // constantly, the harshest test of the lane-wise clamp chain.
    MacFormat fmt;
    fmt.acc_bits = 12;
    fmt.product_shift = 0;
    fmt.act_out = FxpFormat{8, 2};
    ASSERT_TRUE(fxpSimdEligible(fmt));
    checkFxpBitIdentity(fmt, 0xf2);

    // Widening requantize shift (negative rshift) is ineligible and
    // must still be bit-identical via the scalar fallback.
    MacFormat widen;
    widen.act_out = FxpFormat{16, 14};
    ASSERT_LT(widen.accFracBits(), widen.act_out.frac_bits);
    EXPECT_FALSE(fxpSimdEligible(widen));
    checkFxpBitIdentity(widen, 0xf3);

    // Widest still-eligible accumulator.
    MacFormat wide;
    wide.acc_bits = 30;
    ASSERT_TRUE(fxpSimdEligible(wide));
    checkFxpBitIdentity(wide, 0xf4);
}

/**
 * Every tile remainder of the register-blocked kernels against
 * Isa::Scalar: row windows of 1-9 rows (every height mod 4, starting
 * at row 0 and row 1), column windows one short of, at and one past
 * multiples of 8, 16 and 32 starting at j0 in {0, 1, 7} with
 * ldx != ldo,
 * and k in {1, 16, 300} (300 outgrows one weight-pair table). Output
 * outside the window must keep its sentinel.
 */
void
sweepFxpTiles(const MacFormat &fmt, uint64_t seed)
{
    Rng rng(seed);
    const size_t widths[] = {7,  8,  9,  15, 16, 17, 31, 32,
                             33, 47, 48, 49, 63, 64, 65};
    const size_t max_cols = 7 + 65, max_rows = 1 + 9;
    const size_t ldx = max_cols + 3, ldo = max_cols + 5;
    for (size_t k : {size_t(1), size_t(16), size_t(300)}) {
        const auto w = randomI16(max_rows * k, rng);
        const auto x = randomI16(k * ldx, rng);
        for (size_t i0 : {size_t(0), size_t(1)}) {
            for (size_t rows = 1; rows <= 9; ++rows) {
                for (size_t width : widths) {
                    for (size_t j0 : {size_t(0), size_t(1), size_t(7)}) {
                        const size_t i1 = i0 + rows, j1 = j0 + width;
                        std::vector<int16_t> ref(max_rows * ldo, 99);
                        fxpBlock(Isa::Scalar, k, ldx, ldo, w.data(),
                                 x.data(), fmt, ref.data(), i0, i1, j0,
                                 j1);
                        for (Isa isa : supportedIsas()) {
                            std::vector<int16_t> out(max_rows * ldo, 99);
                            fxpBlock(isa, k, ldx, ldo, w.data(), x.data(),
                                     fmt, out.data(), i0, i1, j0, j1);
                            ASSERT_EQ(out, ref)
                                << simd::isaName(isa) << " k=" << k
                                << " rows [" << i0 << "," << i1
                                << ") cols [" << j0 << "," << j1 << ")";
                        }
                    }
                }
            }
        }
    }
}

TEST(SimdFxp, TileRemaindersMatchScalarOnEveryIsa)
{
    MacFormat fmt;
    ASSERT_TRUE(fxpSimdEligible(fmt));
    sweepFxpTiles(fmt, 0x5eed1);

    // The saturating 12-bit accumulator: the clamp fires on most steps.
    MacFormat sat;
    sat.acc_bits = 12;
    sat.product_shift = 0;
    sat.act_out = FxpFormat{8, 2};
    ASSERT_TRUE(fxpSimdEligible(sat));
    sweepFxpTiles(sat, 0x5eed2);
}

TEST(SimdFxp, ProductShiftEligibilityEndsAt15)
{
    // The pair product carries the rounding bias 2^(shift-1) as an
    // int16, so 15 is the last eligible shift; 16 runs the scalar chain
    // on every ISA and must still match it.
    MacFormat last;
    last.product_shift = 15;
    last.act_out = FxpFormat{16, 4}; // keeps the requantize shift >= 0
    ASSERT_TRUE(fxpSimdEligible(last));
    sweepFxpTiles(last, 0x5eed3);

    MacFormat past = last;
    past.product_shift = 16;
    ASSERT_GE(past.accFracBits(), past.act_out.frac_bits);
    EXPECT_FALSE(fxpSimdEligible(past));
    sweepFxpTiles(past, 0x5eed4);
}

TEST(SimdFxp, UnalignedColumnWindowMatchesScalar)
{
    MacFormat fmt;
    Rng rng(0xaced);
    const size_t m = 2, k = 9, n = 29;
    const auto w = randomI16(m * k, rng);
    const auto x = randomI16(k * n, rng);
    for (size_t j0 : {size_t(1), size_t(3), size_t(11)}) {
        const size_t j1 = n - 1;
        std::vector<int16_t> ref(m * n, 99), out(m * n, 99);
        fxpBlock(Isa::Scalar, k, n, n, w.data(), x.data(), fmt,
                 ref.data(), 0, m, j0, j1);
        for (Isa isa : supportedIsas()) {
            std::fill(out.begin(), out.end(), int16_t(99));
            fxpBlock(isa, k, n, n, w.data(), x.data(), fmt, out.data(),
                     0, m, j0, j1);
            EXPECT_EQ(out, ref) << simd::isaName(isa) << " j0=" << j0;
        }
    }
}

TEST(SimdFxp, StagedTilesMatchDenseOnEveryIsa)
{
    // What the fixed-point stage d does per panel, on every ISA:
    // fxpBlock reads the row-major operand in place (ldx = n) and
    // writes the m x w staging tile (ldo = kColBlock). n spans a full
    // and a ragged panel whose width is not a lane multiple.
    MacFormat fmt;
    Rng rng(0x9a7);
    const size_t m = 3, k = 10, n = 299;
    const auto w = randomI16(m * k, rng);
    const auto x = randomI16(k * n, rng);
    std::vector<int16_t> ref(m * n, 0);
    fxpBlock(Isa::Scalar, k, n, n, w.data(), x.data(), fmt, ref.data(),
             0, m, 0, n);

    std::vector<int16_t> tile(m * gemm::kColBlock);
    for (Isa isa : supportedIsas()) {
        std::vector<int16_t> out(m * n, 0);
        for (size_t p0 = 0; p0 < n; p0 += gemm::kColBlock) {
            const size_t pw = std::min(gemm::kColBlock, n - p0);
            fxpBlock(isa, k, n, gemm::kColBlock, w.data(), x.data() + p0,
                     fmt, tile.data(), 0, m, 0, pw);
            for (size_t i = 0; i < m; ++i)
                std::copy_n(tile.data() + i * gemm::kColBlock, pw,
                            out.data() + i * n + p0);
        }
        EXPECT_EQ(out, ref) << simd::isaName(isa);
    }
}

// ---------------------------------------------------------------------
// Stage epilogues: each stage kernel stores its products from the
// registers into the next stage's operand (gemm::StageOut).
// ---------------------------------------------------------------------

/**
 * One stage's store geometry: m x r output rows (p = i * r + t),
 * batch samples of nseg segments of seg columns (q = b * cols +
 * j * seg + c), or with identity V_1 row-major.
 */
struct StageGeom
{
    size_t m, r, seg, nseg, batch;
    bool identity;

    size_t rows() const { return m * r; }
    size_t cols() const { return seg * nseg; }
    size_t n() const { return cols() * batch; }
};

/**
 * The stages of the sweep. m = 4 stores through the interleave: seg 40
 * over 3 samples has vectors inside a segment, vectors straddling a
 * segment or sample edge, and 4-way runs straddling the destination
 * panel edge at column 256, and seg 5 is narrower than every vector.
 * m = 3 (6 rows: a partial row panel) and the identity store of V_1
 * take the other epilogues. Every n leaves a ragged last column panel.
 */
const StageGeom kStageGeoms[] = {
    {4, 3, 40, 3, 3, false},
    {4, 2, 5, 6, 2, false},
    {3, 2, 23, 4, 3, false},
    {4, 1, 45, 2, 3, true},
};

template <typename T>
gemm::StageOut<T>
stageOutOf(const StageGeom &g, T *dst)
{
    gemm::StageOut<T> o;
    o.dst = dst;
    if (g.identity) {
        o.ld = g.n();
        return o;
    }
    o.groups = g.m == 4;
    o.r = g.r;
    o.m = g.m;
    o.seg = g.seg;
    o.cols = g.cols();
    o.dst_cols = g.seg * g.m;
    o.rows = g.nseg * g.r;
    o.n = o.dst_cols * g.batch;
    return o;
}

/**
 * Where product element (p, q) lands, from the definition: row
 * j * r + t, column b * dst_cols + c * m + i of the next operand in
 * 256-column panels (operandDest), or (p, q) for the identity store.
 */
size_t
stageOffset(const StageGeom &g, size_t p, size_t q)
{
    if (g.identity)
        return p * g.n() + q;
    const size_t i = p / g.r, t = p % g.r;
    const size_t b = q / g.cols();
    const size_t j = q % g.cols() / g.seg;
    const size_t c = q % g.seg;
    const size_t rows = g.nseg * g.r, n = g.seg * g.m * g.batch;
    const size_t row = j * g.r + t;
    const size_t col = b * g.seg * g.m + c * g.m + i;
    const size_t p0 = col / 256 * 256;
    return p0 * rows + row * std::min<size_t>(256, n - p0) + col - p0;
}

/** The product @p prod (rows x n, row-major) as the stage stores it. */
template <typename T>
std::vector<T>
storedAs(const StageGeom &g, const std::vector<T> &prod)
{
    std::vector<T> out(prod.size());
    for (size_t p = 0; p < g.rows(); ++p)
        for (size_t q = 0; q < g.n(); ++q)
            out[stageOffset(g, p, q)] = prod[p * g.n() + q];
    return out;
}

/**
 * Runs one stage's kernel per 256-column panel, as gemm::stagePanels
 * does, with the ISA explicit.
 */
template <typename T, typename Kernel>
std::vector<T>
runStage(const StageGeom &g, T fill, Kernel kernel)
{
    std::vector<T> dst(g.rows() * g.n(), fill);
    for (size_t p0 = 0; p0 < g.n(); p0 += gemm::kColBlock) {
        gemm::StageOut<T> o = stageOutOf(g, dst.data());
        o.q0 = p0;
        kernel(o, p0, std::min(gemm::kColBlock, g.n() - p0));
    }
    return dst;
}

template <typename T>
void
checkFloatStagesOnEveryIsa()
{
    Rng rng(0x57a + sizeof(T));
    const size_t k = 10;
    for (const StageGeom &g : kStageGeoms) {
        const size_t m = g.rows(), n = g.n();
        const auto a = randomBuf<T>(m * k, rng);
        const auto b = randomBuf<T>(k * n, rng);
        std::vector<T> prod(m * n, T(0));
        naiveGemm(n, k, a.data(), b.data(), prod.data(), 0, m, 0, n);
        const std::vector<T> want = storedAs(g, prod);
        std::vector<T> pa(pack::packedAElems(m, k));
        if (stageOutOf<T>(g, nullptr).groups)
            pack::packAGroups(g.r, k, a.data(), pa.data());
        else
            pack::packA(m, k, a.data(), pa.data());
        for (Isa isa : supportedIsas()) {
            auto kernel = [&](const gemm::StageOut<T> &o, size_t p0,
                              size_t w) {
                simd::stagePacked(isa, false, k, pa.data(), b.data() + p0,
                                  n, o, 0, m, 0, w);
            };
            const std::vector<T> got = runStage<T>(g, T(-7), kernel);
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(T)),
                      0)
                << simd::isaName(isa) << " " << sizeof(T) << "-byte m "
                << g.m << " r " << g.r << " seg " << g.seg
                << (g.identity ? " identity" : "");
        }
    }
}

TEST(SimdStage, StoresMatchScalarOnEveryIsa)
{
    // Every ISA (scalar included) must store exactly the definition:
    // the interleave, fallback and identity epilogues of f32, f64 and
    // the int16 stage kernel, nothing written twice or left out.
    checkFloatStagesOnEveryIsa<float>();
    checkFloatStagesOnEveryIsa<double>();

    MacFormat fmt;
    Rng rng(0x57b);
    const size_t k = 10;
    for (const StageGeom &g : kStageGeoms) {
        const size_t m = g.rows(), n = g.n();
        const auto w = randomI16(m * k, rng);
        const auto x = randomI16(k * n, rng);
        std::vector<int16_t> prod(m * n, 0);
        fxpBlock(Isa::Scalar, k, n, n, w.data(), x.data(), fmt,
                 prod.data(), 0, m, 0, n);
        const std::vector<int16_t> want = storedAs(g, prod);
        for (Isa isa : supportedIsas()) {
            auto kernel = [&](const gemm::StageOut<int16_t> &o,
                              size_t p0, size_t pw) {
                fxpStage(isa, k, n, w.data(), x.data() + p0, fmt, o, 0, m,
                         0, pw);
            };
            const std::vector<int16_t> got =
                runStage<int16_t>(g, int16_t(99), kernel);
            EXPECT_EQ(got, want)
                << simd::isaName(isa) << " int16 m " << g.m << " r "
                << g.r << " seg " << g.seg
                << (g.identity ? " identity" : "");
        }
    }
}

TEST(SimdFxp, PublicMatmulMatchesPerElementChain)
{
    // The public entry point (whatever ISA is active) must equal the
    // documented per-element scalar chain computed with the public
    // scalar helpers.
    MacFormat fmt;
    Rng rng(0x77);
    const size_t m = 5, k = 17, n = 23;
    Matrix<int16_t> w(m, k), x(k, n);
    for (auto &v : w.flat())
        v = static_cast<int16_t>(rng.intIn(-32768, 32767));
    for (auto &v : x.flat())
        v = static_cast<int16_t>(rng.intIn(-32768, 32767));
    Matrix<int16_t> out = fxpMatmul(w, x, fmt);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            int64_t acc = 0;
            for (size_t kk = 0; kk < k; ++kk)
                accumulate(acc, macProduct(w.at(i, kk), x.at(kk, j), fmt),
                           fmt.acc_bits);
            ASSERT_EQ(out.at(i, j), requantizeAcc(acc, fmt))
                << i << "," << j;
        }
    }
}

} // namespace
} // namespace tie
