#include "linalg/simd.hh"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <type_traits>

#include "common/logging.hh"
#include "linalg/gemm.hh"
#include "linalg/pack.hh"

#if defined(__x86_64__) || defined(__i386__)
#define TIE_SIMD_X86 1
#include <immintrin.h>
#else
#define TIE_SIMD_X86 0
#endif

#if defined(__aarch64__)
#define TIE_SIMD_NEON 1
#include <arm_neon.h>
#else
#define TIE_SIMD_NEON 0
#endif

namespace tie {
namespace simd {

const char *
isaName(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return "scalar";
      case Isa::Avx2:
        return "avx2";
      case Isa::Neon:
        return "neon";
      case Isa::Avx512:
        return "avx512";
    }
    TIE_PANIC("isaName called with invalid Isa ",
              static_cast<int>(isa));
}

bool
isaSupported(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return true;
#if TIE_SIMD_X86
      case Isa::Avx2:
        return __builtin_cpu_supports("avx2");
      case Isa::Avx512:
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw");
#endif
#if TIE_SIMD_NEON
      case Isa::Neon:
        return true;
#endif
      default:
        return false;
    }
}

unsigned
supportedMask()
{
    unsigned mask = 0;
    for (Isa isa : kIsas)
        if (isaSupported(isa))
            mask |= 1u << static_cast<unsigned>(isa);
    return mask;
}

Isa
resolveIsa(const char *env_value, unsigned supported_mask)
{
    auto ok = [&](Isa isa) {
        return (supported_mask >> static_cast<unsigned>(isa)) & 1u;
    };
    if (env_value == nullptr || *env_value == '\0') {
        for (Isa isa : kIsas)
            if (ok(isa))
                return isa;
        return Isa::Scalar;
    }
    std::string names;
    for (Isa isa : kIsas) {
        if (std::strcmp(env_value, isaName(isa)) == 0) {
            if (!ok(isa))
                TIE_FATAL("TIE_SIMD='", env_value, "' requested but ",
                          isaName(isa),
                          " is not supported on this host");
            return isa;
        }
        if (!names.empty())
            names += isa == kIsas[std::size(kIsas) - 1] ? " or " : ", ";
        names += isaName(isa);
    }
    TIE_FATAL("TIE_SIMD='", env_value, "' must be ", names);
}

Isa
activeIsa()
{
    static const Isa isa =
        resolveIsa(std::getenv("TIE_SIMD"), supportedMask());
    return isa;
}

size_t
floatLanes(Isa isa)
{
    switch (isa) {
      case Isa::Avx512:
        return 16;
      case Isa::Avx2:
        return 8;
      case Isa::Neon:
        return 4;
      case Isa::Scalar:
        return 1;
    }
    return 1;
}

size_t
fxpLanes(Isa isa)
{
    return floatLanes(isa);
}

FastMode
resolveFastMode(const char *env_value)
{
    if (env_value == nullptr || *env_value == '\0' ||
        std::strcmp(env_value, "0") == 0)
        return FastMode::Off;
    if (std::strcmp(env_value, "1") == 0)
        return FastMode::On;
    TIE_FATAL("TIE_FAST='", env_value, "' must be 0 or 1");
}

FastMode
resolveFastMode(FastMode requested)
{
    if (requested != FastMode::Env)
        return requested;
    return resolveFastMode(std::getenv("TIE_FAST"));
}

namespace {

/**
 * Scalar reference over a packed A operand (linalg/pack.hh layout):
 * every output element runs the naive i-k-j loop's chain (ascending
 * k, separate multiply and add), reading A through the panel
 * interleave instead of row-major. Handles any row range, including mid-panel starts and
 * the zero-padded tail panel (whose padded rows are simply skipped).
 */
template <typename T>
void
tilePackedScalar(size_t k, const T *pa, const T *b, size_t ldb, T *c,
                 size_t ldc, size_t i0, size_t i1, size_t j0,
                 size_t j1)
{
    constexpr size_t MR = pack::kRowPanel;
    for (size_t k0 = 0; k0 < k; k0 += gemm::kDepthBlock) {
        const size_t k1 = std::min(k, k0 + gemm::kDepthBlock);
        for (size_t i = i0; i < i1; ++i) {
            const size_t p = i / MR;
            const T *ap = pa + p * MR * k + (i - p * MR);
            T *crow = c + i * ldc;
            for (size_t kk = k0; kk < k1; ++kk) {
                const T aik = ap[kk * MR];
                const T *brow = b + kk * ldb;
                for (size_t j = j0; j < j1; ++j)
                    crow[j] += aik * brow[j];
            }
        }
    }
}

/**
 * Scalar column tail of the packed vector kernels: finishes columns
 * [j, j1) of one full panel (rows i .. i + kRowPanel), same chain as
 * the lanes. @p ap is the panel base (pa + i * k).
 */
template <typename T>
inline void
packedColTail(size_t k, const T *ap, const T *b, size_t ldb, T *c,
              size_t ldc, size_t i, size_t j, size_t j1)
{
    constexpr size_t MR = pack::kRowPanel;
    for (size_t r = 0; r < MR; ++r) {
        T *crow = c + (i + r) * ldc;
        for (size_t jj = j; jj < j1; ++jj) {
            T cj = crow[jj];
            for (size_t kk = 0; kk < k; ++kk)
                cj += ap[kk * MR + r] * b[kk * ldb + jj];
            crow[jj] = cj;
        }
    }
}

#if TIE_SIMD_X86

/**
 * Packed x86 microkernels: a kRowPanel x (2 vectors) accumulator block
 * held in registers, k innermost. Per k step: kRowPanel broadcasts
 * from the packed panel and 2 B vector loads feed 2 * kRowPanel
 * multiply-adds, so B is streamed kRowPanel times less often than by
 * a one-row kernel. Separate mul + add keeps every
 * element's chain bit-identical to tilePackedScalar; the *Fma variants
 * (TIE_FAST=1 only) contract them into fused multiply-adds.
 */
__attribute__((target("avx2"))) void
tilePackedF32Avx2(size_t k, const float *pa, const float *b,
                  size_t ldb, float *c, size_t ldc, size_t i0,
                  size_t i1, size_t j0, size_t j1)
{
    constexpr size_t MR = pack::kRowPanel, W = 8;
    size_t i = i0;
    for (; i + MR <= i1; i += MR) {
        const float *ap = pa + i * k;
        size_t j = j0;
        for (; j + 2 * W <= j1; j += 2 * W) {
            __m256 acc0[MR], acc1[MR];
            for (size_t r = 0; r < MR; ++r) {
                acc0[r] = _mm256_loadu_ps(c + (i + r) * ldc + j);
                acc1[r] = _mm256_loadu_ps(c + (i + r) * ldc + j + W);
            }
            for (size_t kk = 0; kk < k; ++kk) {
                const float *av = ap + kk * MR;
                const float *bp = b + kk * ldb + j;
                const __m256 b0 = _mm256_loadu_ps(bp);
                const __m256 b1 = _mm256_loadu_ps(bp + W);
                for (size_t r = 0; r < MR; ++r) {
                    const __m256 a = _mm256_set1_ps(av[r]);
                    acc0[r] = _mm256_add_ps(acc0[r],
                                            _mm256_mul_ps(a, b0));
                    acc1[r] = _mm256_add_ps(acc1[r],
                                            _mm256_mul_ps(a, b1));
                }
            }
            for (size_t r = 0; r < MR; ++r) {
                _mm256_storeu_ps(c + (i + r) * ldc + j, acc0[r]);
                _mm256_storeu_ps(c + (i + r) * ldc + j + W, acc1[r]);
            }
        }
        for (; j + W <= j1; j += W) {
            __m256 acc[MR];
            for (size_t r = 0; r < MR; ++r)
                acc[r] = _mm256_loadu_ps(c + (i + r) * ldc + j);
            for (size_t kk = 0; kk < k; ++kk) {
                const float *av = ap + kk * MR;
                const __m256 b0 = _mm256_loadu_ps(b + kk * ldb + j);
                for (size_t r = 0; r < MR; ++r)
                    acc[r] = _mm256_add_ps(
                        acc[r],
                        _mm256_mul_ps(_mm256_set1_ps(av[r]), b0));
            }
            for (size_t r = 0; r < MR; ++r)
                _mm256_storeu_ps(c + (i + r) * ldc + j, acc[r]);
        }
        if (j < j1)
            packedColTail(k, ap, b, ldb, c, ldc, i, j, j1);
    }
    if (i < i1)
        tilePackedScalar(k, pa, b, ldb, c, ldc, i, i1, j0, j1);
}

__attribute__((target("avx2,fma"))) void
tilePackedF32Avx2Fma(size_t k, const float *pa, const float *b,
                     size_t ldb, float *c, size_t ldc, size_t i0,
                     size_t i1, size_t j0, size_t j1)
{
    constexpr size_t MR = pack::kRowPanel, W = 8;
    size_t i = i0;
    for (; i + MR <= i1; i += MR) {
        const float *ap = pa + i * k;
        size_t j = j0;
        for (; j + 2 * W <= j1; j += 2 * W) {
            __m256 acc0[MR], acc1[MR];
            for (size_t r = 0; r < MR; ++r) {
                acc0[r] = _mm256_loadu_ps(c + (i + r) * ldc + j);
                acc1[r] = _mm256_loadu_ps(c + (i + r) * ldc + j + W);
            }
            for (size_t kk = 0; kk < k; ++kk) {
                const float *av = ap + kk * MR;
                const float *bp = b + kk * ldb + j;
                const __m256 b0 = _mm256_loadu_ps(bp);
                const __m256 b1 = _mm256_loadu_ps(bp + W);
                for (size_t r = 0; r < MR; ++r) {
                    const __m256 a = _mm256_set1_ps(av[r]);
                    acc0[r] = _mm256_fmadd_ps(a, b0, acc0[r]);
                    acc1[r] = _mm256_fmadd_ps(a, b1, acc1[r]);
                }
            }
            for (size_t r = 0; r < MR; ++r) {
                _mm256_storeu_ps(c + (i + r) * ldc + j, acc0[r]);
                _mm256_storeu_ps(c + (i + r) * ldc + j + W, acc1[r]);
            }
        }
        for (; j + W <= j1; j += W) {
            __m256 acc[MR];
            for (size_t r = 0; r < MR; ++r)
                acc[r] = _mm256_loadu_ps(c + (i + r) * ldc + j);
            for (size_t kk = 0; kk < k; ++kk) {
                const float *av = ap + kk * MR;
                const __m256 b0 = _mm256_loadu_ps(b + kk * ldb + j);
                for (size_t r = 0; r < MR; ++r)
                    acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(av[r]),
                                             b0, acc[r]);
            }
            for (size_t r = 0; r < MR; ++r)
                _mm256_storeu_ps(c + (i + r) * ldc + j, acc[r]);
        }
        if (j < j1)
            packedColTail(k, ap, b, ldb, c, ldc, i, j, j1);
    }
    if (i < i1)
        tilePackedScalar(k, pa, b, ldb, c, ldc, i, i1, j0, j1);
}

__attribute__((target("avx2"))) void
tilePackedF64Avx2(size_t k, const double *pa, const double *b,
                  size_t ldb, double *c, size_t ldc, size_t i0,
                  size_t i1, size_t j0, size_t j1)
{
    constexpr size_t MR = pack::kRowPanel, W = 4;
    size_t i = i0;
    for (; i + MR <= i1; i += MR) {
        const double *ap = pa + i * k;
        size_t j = j0;
        for (; j + 2 * W <= j1; j += 2 * W) {
            __m256d acc0[MR], acc1[MR];
            for (size_t r = 0; r < MR; ++r) {
                acc0[r] = _mm256_loadu_pd(c + (i + r) * ldc + j);
                acc1[r] = _mm256_loadu_pd(c + (i + r) * ldc + j + W);
            }
            for (size_t kk = 0; kk < k; ++kk) {
                const double *av = ap + kk * MR;
                const double *bp = b + kk * ldb + j;
                const __m256d b0 = _mm256_loadu_pd(bp);
                const __m256d b1 = _mm256_loadu_pd(bp + W);
                for (size_t r = 0; r < MR; ++r) {
                    const __m256d a = _mm256_set1_pd(av[r]);
                    acc0[r] = _mm256_add_pd(acc0[r],
                                            _mm256_mul_pd(a, b0));
                    acc1[r] = _mm256_add_pd(acc1[r],
                                            _mm256_mul_pd(a, b1));
                }
            }
            for (size_t r = 0; r < MR; ++r) {
                _mm256_storeu_pd(c + (i + r) * ldc + j, acc0[r]);
                _mm256_storeu_pd(c + (i + r) * ldc + j + W, acc1[r]);
            }
        }
        for (; j + W <= j1; j += W) {
            __m256d acc[MR];
            for (size_t r = 0; r < MR; ++r)
                acc[r] = _mm256_loadu_pd(c + (i + r) * ldc + j);
            for (size_t kk = 0; kk < k; ++kk) {
                const double *av = ap + kk * MR;
                const __m256d b0 = _mm256_loadu_pd(b + kk * ldb + j);
                for (size_t r = 0; r < MR; ++r)
                    acc[r] = _mm256_add_pd(
                        acc[r],
                        _mm256_mul_pd(_mm256_set1_pd(av[r]), b0));
            }
            for (size_t r = 0; r < MR; ++r)
                _mm256_storeu_pd(c + (i + r) * ldc + j, acc[r]);
        }
        if (j < j1)
            packedColTail(k, ap, b, ldb, c, ldc, i, j, j1);
    }
    if (i < i1)
        tilePackedScalar(k, pa, b, ldb, c, ldc, i, i1, j0, j1);
}

/**
 * Packed AVX-512 microkernels: the AVX2 register tile at twice the
 * width, kRowPanel rows x 2 vectors (4 x 2 x 8 doubles, 4 x 2 x 16
 * floats). Columns past the last full tile run the AVX2 kernel, and
 * rows of a partial panel the scalar chain, so every element still
 * runs its one ascending-k chain. Fma (TIE_FAST=1, f32 only) fuses
 * each step; AVX-512F has FMA, so one target covers both.
 */
__attribute__((target("avx512f"))) void
tilePackedF64Avx512(size_t k, const double *pa, const double *b,
                    size_t ldb, double *c, size_t ldc, size_t i0,
                    size_t i1, size_t j0, size_t j1)
{
    constexpr size_t MR = pack::kRowPanel, W = 8;
    const size_t jv = j0 + (j1 - j0) / (2 * W) * (2 * W);
    size_t i = i0;
    for (; i + MR <= i1; i += MR) {
        const double *ap = pa + i * k;
        for (size_t j = j0; j < jv; j += 2 * W) {
            __m512d acc0[MR], acc1[MR];
            for (size_t r = 0; r < MR; ++r) {
                acc0[r] = _mm512_loadu_pd(c + (i + r) * ldc + j);
                acc1[r] = _mm512_loadu_pd(c + (i + r) * ldc + j + W);
            }
            for (size_t kk = 0; kk < k; ++kk) {
                const double *av = ap + kk * MR;
                const double *bp = b + kk * ldb + j;
                const __m512d b0 = _mm512_loadu_pd(bp);
                const __m512d b1 = _mm512_loadu_pd(bp + W);
                for (size_t r = 0; r < MR; ++r) {
                    const __m512d a = _mm512_set1_pd(av[r]);
                    acc0[r] = _mm512_add_pd(acc0[r],
                                            _mm512_mul_pd(a, b0));
                    acc1[r] = _mm512_add_pd(acc1[r],
                                            _mm512_mul_pd(a, b1));
                }
            }
            for (size_t r = 0; r < MR; ++r) {
                _mm512_storeu_pd(c + (i + r) * ldc + j, acc0[r]);
                _mm512_storeu_pd(c + (i + r) * ldc + j + W, acc1[r]);
            }
        }
    }
    if (i < i1)
        tilePackedScalar(k, pa, b, ldb, c, ldc, i, i1, j0, jv);
    if (jv < j1)
        tilePackedF64Avx2(k, pa, b, ldb, c, ldc, i0, i1, jv, j1);
}

template <bool Fma>
__attribute__((target("avx512f"))) void
tilePackedF32Avx512(size_t k, const float *pa, const float *b,
                    size_t ldb, float *c, size_t ldc, size_t i0,
                    size_t i1, size_t j0, size_t j1)
{
    constexpr size_t MR = pack::kRowPanel, W = 16;
    const size_t jv = j0 + (j1 - j0) / (2 * W) * (2 * W);
    size_t i = i0;
    for (; i + MR <= i1; i += MR) {
        const float *ap = pa + i * k;
        for (size_t j = j0; j < jv; j += 2 * W) {
            __m512 acc0[MR], acc1[MR];
            for (size_t r = 0; r < MR; ++r) {
                acc0[r] = _mm512_loadu_ps(c + (i + r) * ldc + j);
                acc1[r] = _mm512_loadu_ps(c + (i + r) * ldc + j + W);
            }
            for (size_t kk = 0; kk < k; ++kk) {
                const float *av = ap + kk * MR;
                const float *bp = b + kk * ldb + j;
                const __m512 b0 = _mm512_loadu_ps(bp);
                const __m512 b1 = _mm512_loadu_ps(bp + W);
                for (size_t r = 0; r < MR; ++r) {
                    const __m512 a = _mm512_set1_ps(av[r]);
                    if constexpr (Fma) {
                        acc0[r] = _mm512_fmadd_ps(a, b0, acc0[r]);
                        acc1[r] = _mm512_fmadd_ps(a, b1, acc1[r]);
                    } else {
                        acc0[r] = _mm512_add_ps(acc0[r],
                                                _mm512_mul_ps(a, b0));
                        acc1[r] = _mm512_add_ps(acc1[r],
                                                _mm512_mul_ps(a, b1));
                    }
                }
            }
            for (size_t r = 0; r < MR; ++r) {
                _mm512_storeu_ps(c + (i + r) * ldc + j, acc0[r]);
                _mm512_storeu_ps(c + (i + r) * ldc + j + W, acc1[r]);
            }
        }
    }
    if (i < i1)
        tilePackedScalar(k, pa, b, ldb, c, ldc, i, i1, j0, jv);
    if (jv == j1)
        return;
    if constexpr (Fma)
        tilePackedF32Avx2Fma(k, pa, b, ldb, c, ldc, i0, i1, jv, j1);
    else
        tilePackedF32Avx2(k, pa, b, ldb, c, ldc, i0, i1, jv, j1);
}

#endif // TIE_SIMD_X86

#if TIE_SIMD_NEON

/**
 * Packed NEON microkernels — same register blocking as the x86 ones
 * (kRowPanel x 2 vectors). The Fast variant fuses via vfmaq_f32.
 */
void
tilePackedF32Neon(size_t k, const float *pa, const float *b,
                  size_t ldb, float *c, size_t ldc, size_t i0,
                  size_t i1, size_t j0, size_t j1)
{
    constexpr size_t MR = pack::kRowPanel, W = 4;
    size_t i = i0;
    for (; i + MR <= i1; i += MR) {
        const float *ap = pa + i * k;
        size_t j = j0;
        for (; j + 2 * W <= j1; j += 2 * W) {
            float32x4_t acc0[MR], acc1[MR];
            for (size_t r = 0; r < MR; ++r) {
                acc0[r] = vld1q_f32(c + (i + r) * ldc + j);
                acc1[r] = vld1q_f32(c + (i + r) * ldc + j + W);
            }
            for (size_t kk = 0; kk < k; ++kk) {
                const float *av = ap + kk * MR;
                const float *bp = b + kk * ldb + j;
                const float32x4_t b0 = vld1q_f32(bp);
                const float32x4_t b1 = vld1q_f32(bp + W);
                for (size_t r = 0; r < MR; ++r) {
                    const float32x4_t a = vdupq_n_f32(av[r]);
                    acc0[r] = vaddq_f32(acc0[r], vmulq_f32(a, b0));
                    acc1[r] = vaddq_f32(acc1[r], vmulq_f32(a, b1));
                }
            }
            for (size_t r = 0; r < MR; ++r) {
                vst1q_f32(c + (i + r) * ldc + j, acc0[r]);
                vst1q_f32(c + (i + r) * ldc + j + W, acc1[r]);
            }
        }
        for (; j + W <= j1; j += W) {
            float32x4_t acc[MR];
            for (size_t r = 0; r < MR; ++r)
                acc[r] = vld1q_f32(c + (i + r) * ldc + j);
            for (size_t kk = 0; kk < k; ++kk) {
                const float *av = ap + kk * MR;
                const float32x4_t b0 = vld1q_f32(b + kk * ldb + j);
                for (size_t r = 0; r < MR; ++r)
                    acc[r] = vaddq_f32(
                        acc[r], vmulq_f32(vdupq_n_f32(av[r]), b0));
            }
            for (size_t r = 0; r < MR; ++r)
                vst1q_f32(c + (i + r) * ldc + j, acc[r]);
        }
        if (j < j1)
            packedColTail(k, ap, b, ldb, c, ldc, i, j, j1);
    }
    if (i < i1)
        tilePackedScalar(k, pa, b, ldb, c, ldc, i, i1, j0, j1);
}

void
tilePackedF32NeonFast(size_t k, const float *pa, const float *b,
                      size_t ldb, float *c, size_t ldc, size_t i0,
                      size_t i1, size_t j0, size_t j1)
{
    constexpr size_t MR = pack::kRowPanel, W = 4;
    size_t i = i0;
    for (; i + MR <= i1; i += MR) {
        const float *ap = pa + i * k;
        size_t j = j0;
        for (; j + 2 * W <= j1; j += 2 * W) {
            float32x4_t acc0[MR], acc1[MR];
            for (size_t r = 0; r < MR; ++r) {
                acc0[r] = vld1q_f32(c + (i + r) * ldc + j);
                acc1[r] = vld1q_f32(c + (i + r) * ldc + j + W);
            }
            for (size_t kk = 0; kk < k; ++kk) {
                const float *av = ap + kk * MR;
                const float *bp = b + kk * ldb + j;
                const float32x4_t b0 = vld1q_f32(bp);
                const float32x4_t b1 = vld1q_f32(bp + W);
                for (size_t r = 0; r < MR; ++r) {
                    const float32x4_t a = vdupq_n_f32(av[r]);
                    acc0[r] = vfmaq_f32(acc0[r], a, b0);
                    acc1[r] = vfmaq_f32(acc1[r], a, b1);
                }
            }
            for (size_t r = 0; r < MR; ++r) {
                vst1q_f32(c + (i + r) * ldc + j, acc0[r]);
                vst1q_f32(c + (i + r) * ldc + j + W, acc1[r]);
            }
        }
        for (; j + W <= j1; j += W) {
            float32x4_t acc[MR];
            for (size_t r = 0; r < MR; ++r)
                acc[r] = vld1q_f32(c + (i + r) * ldc + j);
            for (size_t kk = 0; kk < k; ++kk) {
                const float *av = ap + kk * MR;
                const float32x4_t b0 = vld1q_f32(b + kk * ldb + j);
                for (size_t r = 0; r < MR; ++r)
                    acc[r] = vfmaq_f32(acc[r], vdupq_n_f32(av[r]), b0);
            }
            for (size_t r = 0; r < MR; ++r)
                vst1q_f32(c + (i + r) * ldc + j, acc[r]);
        }
        if (j < j1)
            packedColTail(k, ap, b, ldb, c, ldc, i, j, j1);
    }
    if (i < i1)
        tilePackedScalar(k, pa, b, ldb, c, ldc, i, i1, j0, j1);
}

void
tilePackedF64Neon(size_t k, const double *pa, const double *b,
                  size_t ldb, double *c, size_t ldc, size_t i0,
                  size_t i1, size_t j0, size_t j1)
{
    constexpr size_t MR = pack::kRowPanel, W = 2;
    size_t i = i0;
    for (; i + MR <= i1; i += MR) {
        const double *ap = pa + i * k;
        size_t j = j0;
        for (; j + 2 * W <= j1; j += 2 * W) {
            float64x2_t acc0[MR], acc1[MR];
            for (size_t r = 0; r < MR; ++r) {
                acc0[r] = vld1q_f64(c + (i + r) * ldc + j);
                acc1[r] = vld1q_f64(c + (i + r) * ldc + j + W);
            }
            for (size_t kk = 0; kk < k; ++kk) {
                const double *av = ap + kk * MR;
                const double *bp = b + kk * ldb + j;
                const float64x2_t b0 = vld1q_f64(bp);
                const float64x2_t b1 = vld1q_f64(bp + W);
                for (size_t r = 0; r < MR; ++r) {
                    const float64x2_t a = vdupq_n_f64(av[r]);
                    acc0[r] = vaddq_f64(acc0[r], vmulq_f64(a, b0));
                    acc1[r] = vaddq_f64(acc1[r], vmulq_f64(a, b1));
                }
            }
            for (size_t r = 0; r < MR; ++r) {
                vst1q_f64(c + (i + r) * ldc + j, acc0[r]);
                vst1q_f64(c + (i + r) * ldc + j + W, acc1[r]);
            }
        }
        for (; j + W <= j1; j += W) {
            float64x2_t acc[MR];
            for (size_t r = 0; r < MR; ++r)
                acc[r] = vld1q_f64(c + (i + r) * ldc + j);
            for (size_t kk = 0; kk < k; ++kk) {
                const double *av = ap + kk * MR;
                const float64x2_t b0 = vld1q_f64(b + kk * ldb + j);
                for (size_t r = 0; r < MR; ++r)
                    acc[r] = vaddq_f64(
                        acc[r], vmulq_f64(vdupq_n_f64(av[r]), b0));
            }
            for (size_t r = 0; r < MR; ++r)
                vst1q_f64(c + (i + r) * ldc + j, acc[r]);
        }
        if (j < j1)
            packedColTail(k, ap, b, ldb, c, ldc, i, j, j1);
    }
    if (i < i1)
        tilePackedScalar(k, pa, b, ldb, c, ldc, i, i1, j0, j1);
}

#endif // TIE_SIMD_NEON

} // namespace

void
gemmPackedF32(Isa isa, bool fast, size_t k, const float *pa,
              const float *b, size_t ldb, float *c, size_t ldc,
              size_t i0, size_t i1, size_t j0, size_t j1)
{
    switch (isa) {
      case Isa::Scalar:
        // The fast path's scalar fallback is the exact chain: there is
        // no scalar FMA to permit, so fast == exact here.
        tilePackedScalar(k, pa, b, ldb, c, ldc, i0, i1, j0, j1);
        return;
#if TIE_SIMD_X86
      case Isa::Avx512:
        if (fast)
            tilePackedF32Avx512<true>(k, pa, b, ldb, c, ldc, i0, i1, j0,
                                      j1);
        else
            tilePackedF32Avx512<false>(k, pa, b, ldb, c, ldc, i0, i1, j0,
                                       j1);
        return;
      case Isa::Avx2:
        // AVX2 does not strictly imply FMA3 (e.g. VIA Nano); guard the
        // fused kernel on the actual feature and fall back to exact.
        if (fast && __builtin_cpu_supports("fma"))
            tilePackedF32Avx2Fma(k, pa, b, ldb, c, ldc, i0, i1, j0,
                                 j1);
        else
            tilePackedF32Avx2(k, pa, b, ldb, c, ldc, i0, i1, j0, j1);
        return;
#endif
#if TIE_SIMD_NEON
      case Isa::Neon:
        if (fast)
            tilePackedF32NeonFast(k, pa, b, ldb, c, ldc, i0, i1, j0,
                                  j1);
        else
            tilePackedF32Neon(k, pa, b, ldb, c, ldc, i0, i1, j0, j1);
        return;
#endif
      default:
        break;
    }
    TIE_PANIC("gemmPackedF32 dispatched to ", isaName(isa),
              ", which this build cannot execute");
}

void
gemmPackedF64(Isa isa, bool fast, size_t k, const double *pa,
              const double *b, size_t ldb, double *c, size_t ldc,
              size_t i0, size_t i1, size_t j0, size_t j1)
{
    // f64 is bit-exact under every FastMode (the accuracy contract
    // covers f32 only), so the flag is accepted and ignored.
    (void)fast;
    switch (isa) {
      case Isa::Scalar:
        tilePackedScalar(k, pa, b, ldb, c, ldc, i0, i1, j0, j1);
        return;
#if TIE_SIMD_X86
      case Isa::Avx512:
        tilePackedF64Avx512(k, pa, b, ldb, c, ldc, i0, i1, j0, j1);
        return;
      case Isa::Avx2:
        tilePackedF64Avx2(k, pa, b, ldb, c, ldc, i0, i1, j0, j1);
        return;
#endif
#if TIE_SIMD_NEON
      case Isa::Neon:
        tilePackedF64Neon(k, pa, b, ldb, c, ldc, i0, i1, j0, j1);
        return;
#endif
      default:
        break;
    }
    TIE_PANIC("gemmPackedF64 dispatched to ", isaName(isa),
              ", which this build cannot execute");
}

namespace {

#if TIE_SIMD_X86
/** Four rows of one vector step, loaded as raw 256-bit lanes. */
template <typename T>
__attribute__((target("avx2"))) size_t
interleave4Avx2(const T *src, size_t lds, size_t len, T *dst)
{
    // In-lane unpacks build 4-element groups per 128-bit half; the
    // cross-lane permutes put the halves in column order.
    constexpr size_t V = 32 / sizeof(T);
    size_t c = 0;
    for (; c + V <= len; c += V) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + c));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + lds + c));
        const __m256i e = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + 2 * lds + c));
        const __m256i f = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + 3 * lds + c));
        __m256i u0, u1, u2, u3;
        if constexpr (sizeof(T) == 8) {
            // Each unpack already holds a full 2-element pair, so the
            // permutes join (a, b) pairs with (e, f) pairs directly.
            const __m256i ab0 = _mm256_unpacklo_epi64(a, b);
            const __m256i ab1 = _mm256_unpackhi_epi64(a, b);
            const __m256i ef0 = _mm256_unpacklo_epi64(e, f);
            const __m256i ef1 = _mm256_unpackhi_epi64(e, f);
            u0 = _mm256_permute2x128_si256(ab0, ef0, 0x20);
            u1 = _mm256_permute2x128_si256(ab1, ef1, 0x20);
            u2 = _mm256_permute2x128_si256(ab0, ef0, 0x31);
            u3 = _mm256_permute2x128_si256(ab1, ef1, 0x31);
        } else {
            __m256i ab0, ab1, ef0, ef1;
            if constexpr (sizeof(T) == 4) {
                ab0 = _mm256_unpacklo_epi32(a, b);
                ab1 = _mm256_unpackhi_epi32(a, b);
                ef0 = _mm256_unpacklo_epi32(e, f);
                ef1 = _mm256_unpackhi_epi32(e, f);
                u0 = _mm256_unpacklo_epi64(ab0, ef0);
                u1 = _mm256_unpackhi_epi64(ab0, ef0);
                u2 = _mm256_unpacklo_epi64(ab1, ef1);
                u3 = _mm256_unpackhi_epi64(ab1, ef1);
            } else {
                static_assert(sizeof(T) == 2,
                              "2-, 4- or 8-byte elements");
                ab0 = _mm256_unpacklo_epi16(a, b);
                ab1 = _mm256_unpackhi_epi16(a, b);
                ef0 = _mm256_unpacklo_epi16(e, f);
                ef1 = _mm256_unpackhi_epi16(e, f);
                u0 = _mm256_unpacklo_epi32(ab0, ef0);
                u1 = _mm256_unpackhi_epi32(ab0, ef0);
                u2 = _mm256_unpacklo_epi32(ab1, ef1);
                u3 = _mm256_unpackhi_epi32(ab1, ef1);
            }
            const __m256i v0 = _mm256_permute2x128_si256(u0, u1, 0x20);
            const __m256i v1 = _mm256_permute2x128_si256(u2, u3, 0x20);
            const __m256i v2 = _mm256_permute2x128_si256(u0, u1, 0x31);
            const __m256i v3 = _mm256_permute2x128_si256(u2, u3, 0x31);
            u0 = v0;
            u1 = v1;
            u2 = v2;
            u3 = v3;
        }
        __m256i *out = reinterpret_cast<__m256i *>(dst + 4 * c);
        _mm256_storeu_si256(out, u0);
        _mm256_storeu_si256(out + 1, u1);
        _mm256_storeu_si256(out + 2, u2);
        _mm256_storeu_si256(out + 3, u3);
    }
    return c;
}
#endif // TIE_SIMD_X86

#if TIE_SIMD_NEON
/** vst4 is the 4-way interleaving store itself. */
template <typename T>
size_t
interleave4Neon(const T *src, size_t lds, size_t len, T *dst)
{
    constexpr size_t V = 16 / sizeof(T);
    size_t c = 0;
    for (; c + V <= len; c += V) {
        const T *s = src + c;
        if constexpr (std::is_same_v<T, double>) {
            float64x2x4_t v = {{vld1q_f64(s), vld1q_f64(s + lds),
                                vld1q_f64(s + 2 * lds),
                                vld1q_f64(s + 3 * lds)}};
            vst4q_f64(dst + 4 * c, v);
        } else if constexpr (std::is_same_v<T, float>) {
            float32x4x4_t v = {{vld1q_f32(s), vld1q_f32(s + lds),
                                vld1q_f32(s + 2 * lds),
                                vld1q_f32(s + 3 * lds)}};
            vst4q_f32(dst + 4 * c, v);
        } else {
            static_assert(std::is_same_v<T, int16_t>,
                          "int16_t, float or double elements");
            int16x8x4_t v = {{vld1q_s16(s), vld1q_s16(s + lds),
                              vld1q_s16(s + 2 * lds),
                              vld1q_s16(s + 3 * lds)}};
            vst4q_s16(dst + 4 * c, v);
        }
    }
    return c;
}
#endif // TIE_SIMD_NEON

} // namespace

template <typename T>
void
interleave4(Isa isa, const T *src, size_t lds, size_t len, T *dst)
{
    size_t c = 0;
    switch (isa) {
      case Isa::Scalar:
        break;
#if TIE_SIMD_X86
      case Isa::Avx512:
      case Isa::Avx2:
        c = interleave4Avx2(src, lds, len, dst);
        break;
#endif
#if TIE_SIMD_NEON
      case Isa::Neon:
        c = interleave4Neon(src, lds, len, dst);
        break;
#endif
      default:
        TIE_PANIC("interleave4 dispatched to ", isaName(isa),
                  ", which this build cannot execute");
    }
    for (; c < len; ++c)
        for (size_t i = 0; i < 4; ++i)
            dst[4 * c + i] = src[i * lds + c];
}

template void interleave4<int16_t>(Isa, const int16_t *, size_t, size_t,
                                   int16_t *);
template void interleave4<float>(Isa, const float *, size_t, size_t,
                                 float *);
template void interleave4<double>(Isa, const double *, size_t, size_t,
                                  double *);

} // namespace simd
} // namespace tie
