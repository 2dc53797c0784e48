/**
 * @file
 * Register ops of the SIMD kernels, shared by the packed float kernels
 * (linalg/simd.cc) and the fixed-point MAC kernels (quant/fxp_simd.cc),
 * and the epilogue that stores their results from the registers. Only
 * those two files include it: every function carries its ISA's target
 * attribute and is inlined into kernels of that target, which the
 * simd::Isa dispatch runs only on hosts that have it.
 *
 * Avx2<T>, Avx512<T> and Neon<T> hold one vector of W lanes of T
 * (double, float or int16_t) with its loads, stores and float
 * arithmetic, and storeInterleaved, which writes four row vectors as
 * 4 * W contiguous elements, dst[4c + i] = v[i][c]: the 4-way
 * interleave of a TT stage with m_h = 4 (gemm::StageOut).
 *
 * storeRows<ISA> is the epilogue of every kernel, per block of R row
 * vectors: row by row into row-major C (gemm::RowsOut); for a stage,
 * one interleave where take() finds a contiguous run, else the block is
 * spilled to the stack and stored element by element. It only moves
 * bits, so every ISA stores what the scalar path stores.
 */

#ifndef TIE_LINALG_SIMD_OPS_HH
#define TIE_LINALG_SIMD_OPS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "linalg/gemm.hh"

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
namespace ops {

// The epilogue is the same for every ISA; the macro stamps it out under
// each target (ATTR): a target attribute cannot be a template argument,
// and a function without it cannot inline the ISA's ops.
// clang-format off
#define TIE_STORE_ROWS(ATTR, ISA)                                        \
    template <typename T, size_t R, typename Out, typename V>            \
    ATTR inline void                                                     \
    storeRows##ISA(Out &out, size_t i, size_t j, const V (&v)[R])        \
    {                                                                    \
        using O = ISA<T>;                                                \
        T *d = nullptr;                                                  \
        if constexpr (Out::kScatter && R == 4)                           \
            d = out.take(i, j, O::W);                                    \
        if constexpr (!Out::kScatter) {                                  \
            for (size_t r = 0; r < R; ++r)                               \
                O::store(out.at(i + r, j), v[r]);                        \
        } else if (d) {                                                  \
            O::storeInterleaved(v, d);                                   \
        } else {                                                         \
            T spill[R][O::W];                                            \
            for (size_t r = 0; r < R; ++r)                               \
                O::store(spill[r], v[r]);                                \
            for (size_t r = 0; r < R; ++r)                               \
                for (size_t c = 0; c < O::W; ++c)                        \
                    *out.at(i + r, j + c) = spill[r][c];                 \
        }                                                                \
    }
// clang-format on

#if TIE_SIMD_X86

#define TIE_AVX2 __attribute__((target("avx2"), always_inline))
#define TIE_FMA __attribute__((target("avx2,fma"), always_inline))
#define TIE_AVX512 __attribute__((target("avx512f,avx512bw"), always_inline))

/** One AVX2 register of T (W lanes); fma needs FMA too. */
template <typename T>
struct Avx2;

template <>
struct Avx2<double>
{
    using V = __m256d;
    static constexpr size_t W = 4;
    TIE_AVX2 static V zero() { return _mm256_setzero_pd(); }
    TIE_AVX2 static V load(const double *p) { return _mm256_loadu_pd(p); }
    TIE_AVX2 static void store(double *p, V v) { _mm256_storeu_pd(p, v); }
    TIE_AVX2 static V bcast(double a) { return _mm256_set1_pd(a); }
    TIE_AVX2 static V add(V a, V b) { return _mm256_add_pd(a, b); }
    TIE_AVX2 static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
    TIE_FMA static V fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }

    /** In-lane unpacks make (a, b) and (e, f) pairs, and the lane
        permutes join them in column order. */
    TIE_AVX2 static void
    storeInterleaved(const V *v, double *dst)
    {
        const V ab0 = _mm256_unpacklo_pd(v[0], v[1]);
        const V ab1 = _mm256_unpackhi_pd(v[0], v[1]);
        const V ef0 = _mm256_unpacklo_pd(v[2], v[3]);
        const V ef1 = _mm256_unpackhi_pd(v[2], v[3]);
        store(dst, _mm256_permute2f128_pd(ab0, ef0, 0x20));
        store(dst + 4, _mm256_permute2f128_pd(ab1, ef1, 0x20));
        store(dst + 8, _mm256_permute2f128_pd(ab0, ef0, 0x31));
        store(dst + 12, _mm256_permute2f128_pd(ab1, ef1, 0x31));
    }
};

template <>
struct Avx2<float>
{
    using V = __m256;
    static constexpr size_t W = 8;
    TIE_AVX2 static V zero() { return _mm256_setzero_ps(); }
    TIE_AVX2 static V load(const float *p) { return _mm256_loadu_ps(p); }
    TIE_AVX2 static void store(float *p, V v) { _mm256_storeu_ps(p, v); }
    TIE_AVX2 static V bcast(float a) { return _mm256_set1_ps(a); }
    TIE_AVX2 static V add(V a, V b) { return _mm256_add_ps(a, b); }
    TIE_AVX2 static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
    TIE_FMA static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }

    /** Pairs, then pairs of pairs, per 128-bit lane; the lane permutes
        put the halves in column order. */
    TIE_AVX2 static void
    storeInterleaved(const V *v, float *dst)
    {
        const __m256d ab0 =
            _mm256_castps_pd(_mm256_unpacklo_ps(v[0], v[1]));
        const __m256d ab1 =
            _mm256_castps_pd(_mm256_unpackhi_ps(v[0], v[1]));
        const __m256d ef0 =
            _mm256_castps_pd(_mm256_unpacklo_ps(v[2], v[3]));
        const __m256d ef1 =
            _mm256_castps_pd(_mm256_unpackhi_ps(v[2], v[3]));
        const V u0 = _mm256_castpd_ps(_mm256_unpacklo_pd(ab0, ef0));
        const V u1 = _mm256_castpd_ps(_mm256_unpackhi_pd(ab0, ef0));
        const V u2 = _mm256_castpd_ps(_mm256_unpacklo_pd(ab1, ef1));
        const V u3 = _mm256_castpd_ps(_mm256_unpackhi_pd(ab1, ef1));
        store(dst, _mm256_permute2f128_ps(u0, u1, 0x20));
        store(dst + 8, _mm256_permute2f128_ps(u2, u3, 0x20));
        store(dst + 16, _mm256_permute2f128_ps(u0, u1, 0x31));
        store(dst + 24, _mm256_permute2f128_ps(u2, u3, 0x31));
    }
};

template <>
struct Avx2<int16_t>
{
    using V = __m256i;
    static constexpr size_t W = 16;

    TIE_AVX2 static void
    store(int16_t *p, V v)
    {
        _mm256_storeu_si256(reinterpret_cast<V *>(p), v);
    }

    /** Avx2<float>'s sequence one lane size down. */
    TIE_AVX2 static void
    storeInterleaved(const V *v, int16_t *dst)
    {
        const V ab0 = _mm256_unpacklo_epi16(v[0], v[1]);
        const V ab1 = _mm256_unpackhi_epi16(v[0], v[1]);
        const V ef0 = _mm256_unpacklo_epi16(v[2], v[3]);
        const V ef1 = _mm256_unpackhi_epi16(v[2], v[3]);
        const V u0 = _mm256_unpacklo_epi32(ab0, ef0);
        const V u1 = _mm256_unpackhi_epi32(ab0, ef0);
        const V u2 = _mm256_unpacklo_epi32(ab1, ef1);
        const V u3 = _mm256_unpackhi_epi32(ab1, ef1);
        store(dst, _mm256_permute2x128_si256(u0, u1, 0x20));
        store(dst + 16, _mm256_permute2x128_si256(u2, u3, 0x20));
        store(dst + 32, _mm256_permute2x128_si256(u0, u1, 0x31));
        store(dst + 48, _mm256_permute2x128_si256(u2, u3, 0x31));
    }
};

/**
 * Two-vector permute of S-byte lanes through an index vector that zips
 * units of G lanes from the low (kHi false) or high halves of a and b:
 * unit 2u comes from a, unit 2u + 1 from b.
 */
template <size_t S, size_t G, bool kHi>
TIE_AVX512 inline __m512i
zip(__m512i a, __m512i b)
{
    using U = std::conditional_t<
        S == 2, int16_t, std::conditional_t<S == 4, int32_t, int64_t>>;
    constexpr size_t N = 64 / S;
    alignas(64) static constexpr auto idx = [] {
        std::array<U, N> x{};
        for (size_t l = 0; l < N; ++l) {
            const size_t u = l / G;
            x[l] = static_cast<U>((u / 2 + (kHi ? N / (2 * G) : 0)) * G +
                                  l % G + (u % 2 ? N : 0));
        }
        return x;
    }();
    const __m512i iv = _mm512_load_si512(idx.data());
    if constexpr (S == 2)
        return _mm512_permutex2var_epi16(a, iv, b);
    else if constexpr (S == 4)
        return _mm512_permutex2var_epi32(a, iv, b);
    else
        return _mm512_permutex2var_epi64(a, iv, b);
}

/** Eight permutes: zip lanes into (a, b) and (e, f) pairs, then zip the
    pairs; v holds four rows of S-byte lanes. */
template <size_t S>
TIE_AVX512 inline void
storeInterleaved512(const __m512i *v, void *dst)
{
    const __m512i ab0 = zip<S, 1, false>(v[0], v[1]);
    const __m512i ab1 = zip<S, 1, true>(v[0], v[1]);
    const __m512i ef0 = zip<S, 1, false>(v[2], v[3]);
    const __m512i ef1 = zip<S, 1, true>(v[2], v[3]);
    char *d = static_cast<char *>(dst);
    _mm512_storeu_si512(d, zip<S, 2, false>(ab0, ef0));
    _mm512_storeu_si512(d + 64, zip<S, 2, true>(ab0, ef0));
    _mm512_storeu_si512(d + 128, zip<S, 2, false>(ab1, ef1));
    _mm512_storeu_si512(d + 192, zip<S, 2, true>(ab1, ef1));
}

/** One AVX-512 register of T (W lanes). */
template <typename T>
struct Avx512;

template <>
struct Avx512<double>
{
    using V = __m512d;
    static constexpr size_t W = 8;
    TIE_AVX512 static V zero() { return _mm512_setzero_pd(); }
    TIE_AVX512 static V load(const double *p) { return _mm512_loadu_pd(p); }
    TIE_AVX512 static void store(double *p, V v) { _mm512_storeu_pd(p, v); }
    TIE_AVX512 static V bcast(double a) { return _mm512_set1_pd(a); }
    TIE_AVX512 static V add(V a, V b) { return _mm512_add_pd(a, b); }
    TIE_AVX512 static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
    TIE_AVX512 static V fma(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }

    TIE_AVX512 static void
    storeInterleaved(const V *v, double *dst)
    {
        const __m512i u[4] = {
            _mm512_castpd_si512(v[0]), _mm512_castpd_si512(v[1]),
            _mm512_castpd_si512(v[2]), _mm512_castpd_si512(v[3])};
        storeInterleaved512<8>(u, dst);
    }
};

template <>
struct Avx512<float>
{
    using V = __m512;
    static constexpr size_t W = 16;
    TIE_AVX512 static V zero() { return _mm512_setzero_ps(); }
    TIE_AVX512 static V load(const float *p) { return _mm512_loadu_ps(p); }
    TIE_AVX512 static void store(float *p, V v) { _mm512_storeu_ps(p, v); }
    TIE_AVX512 static V bcast(float a) { return _mm512_set1_ps(a); }
    TIE_AVX512 static V add(V a, V b) { return _mm512_add_ps(a, b); }
    TIE_AVX512 static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
    TIE_AVX512 static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }

    TIE_AVX512 static void
    storeInterleaved(const V *v, float *dst)
    {
        const __m512i u[4] = {
            _mm512_castps_si512(v[0]), _mm512_castps_si512(v[1]),
            _mm512_castps_si512(v[2]), _mm512_castps_si512(v[3])};
        storeInterleaved512<4>(u, dst);
    }
};

template <>
struct Avx512<int16_t>
{
    using V = __m512i;
    static constexpr size_t W = 32;

    TIE_AVX512 static void
    store(int16_t *p, V v)
    {
        _mm512_storeu_si512(p, v);
    }

    TIE_AVX512 static void
    storeInterleaved(const V *v, int16_t *dst)
    {
        storeInterleaved512<2>(v, dst);
    }
};

// clang-format off
TIE_STORE_ROWS(TIE_AVX2, Avx2)
TIE_STORE_ROWS(TIE_AVX512, Avx512)
// clang-format on

#endif // TIE_SIMD_X86

#if TIE_SIMD_NEON

#define TIE_NEON __attribute__((always_inline))

/** One NEON register of T (W lanes); vst4 is the interleaving store. */
template <typename T>
struct Neon;

template <>
struct Neon<double>
{
    using V = float64x2_t;
    static constexpr size_t W = 2;
    TIE_NEON static V zero() { return vdupq_n_f64(0.0); }
    TIE_NEON static V load(const double *p) { return vld1q_f64(p); }
    TIE_NEON static void store(double *p, V v) { vst1q_f64(p, v); }
    TIE_NEON static V bcast(double a) { return vdupq_n_f64(a); }
    TIE_NEON static V add(V a, V b) { return vaddq_f64(a, b); }
    TIE_NEON static V mul(V a, V b) { return vmulq_f64(a, b); }
    TIE_NEON static V fma(V a, V b, V c) { return vfmaq_f64(c, a, b); }

    TIE_NEON static void
    storeInterleaved(const V *v, double *dst)
    {
        vst4q_f64(dst, (float64x2x4_t{{v[0], v[1], v[2], v[3]}}));
    }
};

template <>
struct Neon<float>
{
    using V = float32x4_t;
    static constexpr size_t W = 4;
    TIE_NEON static V zero() { return vdupq_n_f32(0.0f); }
    TIE_NEON static V load(const float *p) { return vld1q_f32(p); }
    TIE_NEON static void store(float *p, V v) { vst1q_f32(p, v); }
    TIE_NEON static V bcast(float a) { return vdupq_n_f32(a); }
    TIE_NEON static V add(V a, V b) { return vaddq_f32(a, b); }
    TIE_NEON static V mul(V a, V b) { return vmulq_f32(a, b); }
    TIE_NEON static V fma(V a, V b, V c) { return vfmaq_f32(c, a, b); }

    TIE_NEON static void
    storeInterleaved(const V *v, float *dst)
    {
        vst4q_f32(dst, (float32x4x4_t{{v[0], v[1], v[2], v[3]}}));
    }
};

template <>
struct Neon<int16_t>
{
    using V = int16x8_t;
    static constexpr size_t W = 8;
    TIE_NEON static void store(int16_t *p, V v) { vst1q_s16(p, v); }

    TIE_NEON static void
    storeInterleaved(const V *v, int16_t *dst)
    {
        vst4q_s16(dst, (int16x8x4_t{{v[0], v[1], v[2], v[3]}}));
    }
};

// clang-format off
TIE_STORE_ROWS(TIE_NEON, Neon)
// clang-format on

#endif // TIE_SIMD_NEON

} // namespace ops
} // namespace simd
} // namespace tie

#endif // TIE_LINALG_SIMD_OPS_HH
