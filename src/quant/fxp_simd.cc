#include "quant/fxp_simd.hh"

#include "common/logging.hh"
#include "quant/fxp.hh"

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

bool
fxpSimdEligible(const MacFormat &fmt)
{
    const int rshift = fmt.accFracBits() - fmt.act_out.frac_bits;
    // |w * x| <= 2^30; after a rounding shift of s the product fits in
    // 31 - s bits, the accumulator clamps to acc_bits, and every
    // intermediate sum then stays strictly inside int32 (see header).
    return fmt.acc_bits >= 2 && fmt.acc_bits <= 30 &&
           fmt.product_shift <= 30 && rshift >= 0 && rshift <= 30 &&
           fmt.act_out.total_bits >= 2 && fmt.act_out.total_bits <= 16;
}

namespace {

/**
 * Scalar reference chain — the loop fxpMatmulRaw ran before the SIMD
 * layer existed, with separate operand (@p ldx) and output (@p ldo)
 * row strides. Every vector kernel below must produce identical bits.
 */
void
scalarBlock(size_t k, size_t ldx, size_t ldo, const int16_t *w,
            const int16_t *x, const MacFormat &fmt, int16_t *out,
            size_t i0, size_t i1, size_t j0, size_t j1)
{
    for (size_t i = i0; i < i1; ++i) {
        const int16_t *wrow = w + i * k;
        for (size_t j = j0; j < j1; ++j) {
            int64_t acc = 0;
            for (size_t kk = 0; kk < k; ++kk)
                accumulate(acc,
                           macProduct(wrow[kk], x[kk * ldx + j], fmt),
                           fmt.acc_bits);
            out[i * ldo + j] = requantizeAcc(acc, fmt);
        }
    }
}

/** Lane-ready constants of one MacFormat (fxpSimdEligible == true). */
struct LaneParams
{
    int32_t pshift;  ///< product rounding shift (0 when <= 0)
    int32_t pbias;   ///< rounding bias added before pshift
    int32_t acc_hi;  ///< accumulator saturation bounds
    int32_t acc_lo;
    int32_t rshift;  ///< requantize rounding shift
    int32_t rbias;
    int32_t out_hi;  ///< output saturation bounds
    int32_t out_lo;
};

LaneParams
laneParams(const MacFormat &fmt)
{
    LaneParams p;
    p.pshift = fmt.product_shift > 0 ? fmt.product_shift : 0;
    p.pbias = p.pshift > 0 ? int32_t(1) << (p.pshift - 1) : 0;
    p.acc_hi = (int32_t(1) << (fmt.acc_bits - 1)) - 1;
    p.acc_lo = -(int32_t(1) << (fmt.acc_bits - 1));
    p.rshift = fmt.accFracBits() - fmt.act_out.frac_bits;
    p.rbias = p.rshift > 0 ? int32_t(1) << (p.rshift - 1) : 0;
    p.out_hi = (int32_t(1) << (fmt.act_out.total_bits - 1)) - 1;
    p.out_lo = -(int32_t(1) << (fmt.act_out.total_bits - 1));
    return p;
}

#if TIE_SIMD_X86

__attribute__((target("avx2"))) void
blockAvx2(size_t k, size_t ldx, size_t ldo, const int16_t *w,
          const int16_t *x, const MacFormat &fmt, const LaneParams &p,
          int16_t *out, size_t i0, size_t i1, size_t j0, size_t j1)
{
    constexpr size_t W = 8;
    const __m256i pbias = _mm256_set1_epi32(p.pbias);
    const __m128i pcnt = _mm_cvtsi32_si128(p.pshift);
    const __m256i acc_hi = _mm256_set1_epi32(p.acc_hi);
    const __m256i acc_lo = _mm256_set1_epi32(p.acc_lo);
    const __m256i rbias = _mm256_set1_epi32(p.rbias);
    const __m128i rcnt = _mm_cvtsi32_si128(p.rshift);
    const __m256i out_hi = _mm256_set1_epi32(p.out_hi);
    const __m256i out_lo = _mm256_set1_epi32(p.out_lo);
    for (size_t i = i0; i < i1; ++i) {
        const int16_t *wrow = w + i * k;
        size_t j = j0;
        for (; j + W <= j1; j += W) {
            __m256i acc = _mm256_setzero_si256();
            for (size_t kk = 0; kk < k; ++kk) {
                const __m256i wv =
                    _mm256_set1_epi32(static_cast<int32_t>(wrow[kk]));
                const __m128i xr = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(x + kk * ldx + j));
                const __m256i xv = _mm256_cvtepi16_epi32(xr);
                __m256i prod = _mm256_mullo_epi32(wv, xv);
                prod = _mm256_sra_epi32(_mm256_add_epi32(prod, pbias),
                                        pcnt);
                acc = _mm256_add_epi32(acc, prod);
                acc = _mm256_min_epi32(_mm256_max_epi32(acc, acc_lo),
                                       acc_hi);
            }
            acc = _mm256_sra_epi32(_mm256_add_epi32(acc, rbias), rcnt);
            acc = _mm256_min_epi32(_mm256_max_epi32(acc, out_lo),
                                   out_hi);
            // Values already sit inside int16 range, so the saturating
            // pack is a pure narrowing; the permute undoes its 128-bit
            // lane interleave.
            __m256i packed = _mm256_packs_epi32(acc, acc);
            packed = _mm256_permute4x64_epi64(packed,
                                              _MM_SHUFFLE(3, 1, 2, 0));
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(out + i * ldo + j),
                _mm256_castsi256_si128(packed));
        }
        if (j < j1)
            scalarBlock(k, ldx, ldo, w, x, fmt, out, i, i + 1, j, j1);
    }
}

__attribute__((target("sse4.2"))) void
blockSse(size_t k, size_t ldx, size_t ldo, const int16_t *w,
         const int16_t *x, const MacFormat &fmt, const LaneParams &p,
         int16_t *out, size_t i0, size_t i1, size_t j0, size_t j1)
{
    constexpr size_t W = 4;
    const __m128i pbias = _mm_set1_epi32(p.pbias);
    const __m128i pcnt = _mm_cvtsi32_si128(p.pshift);
    const __m128i acc_hi = _mm_set1_epi32(p.acc_hi);
    const __m128i acc_lo = _mm_set1_epi32(p.acc_lo);
    const __m128i rbias = _mm_set1_epi32(p.rbias);
    const __m128i rcnt = _mm_cvtsi32_si128(p.rshift);
    const __m128i out_hi = _mm_set1_epi32(p.out_hi);
    const __m128i out_lo = _mm_set1_epi32(p.out_lo);
    for (size_t i = i0; i < i1; ++i) {
        const int16_t *wrow = w + i * k;
        size_t j = j0;
        for (; j + W <= j1; j += W) {
            __m128i acc = _mm_setzero_si128();
            for (size_t kk = 0; kk < k; ++kk) {
                const __m128i wv =
                    _mm_set1_epi32(static_cast<int32_t>(wrow[kk]));
                const __m128i xr = _mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(x + kk * ldx + j));
                const __m128i xv = _mm_cvtepi16_epi32(xr);
                __m128i prod = _mm_mullo_epi32(wv, xv);
                prod = _mm_sra_epi32(_mm_add_epi32(prod, pbias), pcnt);
                acc = _mm_add_epi32(acc, prod);
                acc = _mm_min_epi32(_mm_max_epi32(acc, acc_lo), acc_hi);
            }
            acc = _mm_sra_epi32(_mm_add_epi32(acc, rbias), rcnt);
            acc = _mm_min_epi32(_mm_max_epi32(acc, out_lo), out_hi);
            const __m128i packed = _mm_packs_epi32(acc, acc);
            _mm_storel_epi64(
                reinterpret_cast<__m128i *>(out + i * ldo + j), packed);
        }
        if (j < j1)
            scalarBlock(k, ldx, ldo, w, x, fmt, out, i, i + 1, j, j1);
    }
}

#endif // TIE_SIMD_X86

#if TIE_SIMD_NEON

void
blockNeon(size_t k, size_t ldx, size_t ldo, const int16_t *w,
          const int16_t *x, const MacFormat &fmt, const LaneParams &p,
          int16_t *out, size_t i0, size_t i1, size_t j0, size_t j1)
{
    constexpr size_t W = 4;
    const int32x4_t pbias = vdupq_n_s32(p.pbias);
    const int32x4_t pcnt = vdupq_n_s32(-p.pshift);
    const int32x4_t acc_hi = vdupq_n_s32(p.acc_hi);
    const int32x4_t acc_lo = vdupq_n_s32(p.acc_lo);
    const int32x4_t rbias = vdupq_n_s32(p.rbias);
    const int32x4_t rcnt = vdupq_n_s32(-p.rshift);
    const int32x4_t out_hi = vdupq_n_s32(p.out_hi);
    const int32x4_t out_lo = vdupq_n_s32(p.out_lo);
    for (size_t i = i0; i < i1; ++i) {
        const int16_t *wrow = w + i * k;
        size_t j = j0;
        for (; j + W <= j1; j += W) {
            int32x4_t acc = vdupq_n_s32(0);
            for (size_t kk = 0; kk < k; ++kk) {
                const int32x4_t wv =
                    vdupq_n_s32(static_cast<int32_t>(wrow[kk]));
                const int32x4_t xv =
                    vmovl_s16(vld1_s16(x + kk * ldx + j));
                int32x4_t prod = vmulq_s32(wv, xv);
                prod = vshlq_s32(vaddq_s32(prod, pbias), pcnt);
                acc = vaddq_s32(acc, prod);
                acc = vminq_s32(vmaxq_s32(acc, acc_lo), acc_hi);
            }
            acc = vshlq_s32(vaddq_s32(acc, rbias), rcnt);
            acc = vminq_s32(vmaxq_s32(acc, out_lo), out_hi);
            vst1_s16(out + i * ldo + j, vqmovn_s32(acc));
        }
        if (j < j1)
            scalarBlock(k, ldx, ldo, w, x, fmt, out, i, i + 1, j, j1);
    }
}

#endif // TIE_SIMD_NEON

} // namespace

void
fxpBlock(simd::Isa isa, size_t k, size_t ldx, size_t ldo,
         const int16_t *w, const int16_t *x, const MacFormat &fmt,
         int16_t *out, size_t i0, size_t i1, size_t j0, size_t j1)
{
    if (isa == simd::Isa::Scalar || !fxpSimdEligible(fmt)) {
        scalarBlock(k, ldx, ldo, w, x, fmt, out, i0, i1, j0, j1);
        return;
    }
    const LaneParams p = laneParams(fmt);
    switch (isa) {
#if TIE_SIMD_X86
      case simd::Isa::Avx2:
        blockAvx2(k, ldx, ldo, w, x, fmt, p, out, i0, i1, j0, j1);
        return;
      case simd::Isa::Sse42:
        blockSse(k, ldx, ldo, w, x, fmt, p, out, i0, i1, j0, j1);
        return;
#endif
#if TIE_SIMD_NEON
      case simd::Isa::Neon:
        blockNeon(k, ldx, ldo, w, x, fmt, p, out, i0, i1, j0, j1);
        return;
#endif
      default:
        break;
    }
    TIE_PANIC("fxpBlock dispatched to ", simd::isaName(isa),
              ", which this build cannot execute");
}

} // namespace tie
