#include "quant/fxp_simd.hh"

#include <algorithm>
#include <cstdlib>
#include <type_traits>

#include "common/logging.hh"
#include "linalg/simd_ops.hh"
#include "obs/stat_registry.hh"
#include "quant/fxp.hh"

namespace tie {

bool
fxpSimdEligible(const MacFormat &fmt)
{
    const int rshift = fmt.accFracBits() - fmt.act_out.frac_bits;
    // The pair product carries pbias = 2^(s-1) as an int16 (s <= 15);
    // |w * x + pbias| < 2^31, after the shift the accumulator clamps to
    // acc_bits, and every intermediate sum then stays strictly inside
    // int32 (see header).
    return fmt.acc_bits >= 2 && fmt.acc_bits <= 30 &&
           fmt.product_shift <= 15 && rshift >= 0 && rshift <= 30 &&
           fmt.act_out.total_bits >= 2 && fmt.act_out.total_bits <= 16;
}

int64_t
fxpClampFreeBudget(const MacFormat &fmt, size_t k)
{
    TIE_REQUIRE(fxpSimdEligible(fmt),
                "clamp budget of a format the lanes do not run");
    const int64_t acc_hi = (int64_t(1) << (fmt.acc_bits - 1)) - 1;
    if (k > static_cast<uint64_t>(acc_hi))
        return -1;
    return (acc_hi - static_cast<int64_t>(k))
           << std::max(fmt.product_shift, 0);
}

namespace {

/**
 * Scalar reference chain — the loop fxpMatmulRaw ran before the SIMD
 * layer existed, reading the operand at row stride @p ldx and storing
 * through the epilogue (gemm::RowsOut or gemm::StageOut, whose row(i)
 * also picks the weight row). Every vector kernel below must produce
 * identical bits.
 */
template <typename Out>
void
scalarBlock(size_t k, size_t ldx, const int16_t *w, const int16_t *x,
            const MacFormat &fmt, const Out &out, size_t i0, size_t i1,
            size_t j0, size_t j1)
{
    for (size_t i = i0; i < i1; ++i) {
        const int16_t *wrow = w + out.row(i) * k;
        for (size_t j = j0; j < j1; ++j) {
            int64_t acc = 0;
            for (size_t kk = 0; kk < k; ++kk)
                accumulate(acc,
                           macProduct(wrow[kk], x[kk * ldx + j], fmt),
                           fmt.acc_bits);
            *out.at(i, j) = requantizeAcc(acc, fmt);
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
    /** A row tile whose largest row sum of |w| is at most this runs
        clamp-free (header); negative: none does. */
    int64_t sumw_max;
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
    p.sumw_max = -1;
    return p;
}

/** Rows of one register tile: each operand load feeds this many. */
constexpr size_t kTileRows = 4;

/**
 * rows(i, R) over the kTileRows-row tiles of [i0, i1), then once over
 * the 1-3 remaining rows; R is a std::integral_constant, so every
 * kernel instantiates at a fixed tile height.
 */
template <typename Rows>
void
forRowTiles(size_t i0, size_t i1, Rows rows)
{
    size_t i = i0;
    for (; i + kTileRows <= i1; i += kTileRows)
        rows(i, std::integral_constant<size_t, kTileRows>());
    switch (i1 - i) {
      case 3:
        rows(i, std::integral_constant<size_t, 3>());
        break;
      case 2:
        rows(i, std::integral_constant<size_t, 2>());
        break;
      case 1:
        rows(i, std::integral_constant<size_t, 1>());
        break;
    }
}

/** The largest row sum of |w| over tile rows [i, i + R). */
template <size_t R, typename Out>
int64_t
maxRowAbsSum(size_t k, const int16_t *w, const Out &out, size_t i)
{
    int64_t most = 0;
    for (size_t r = 0; r < R; ++r) {
        const int16_t *wrow = w + out.row(i + r) * k;
        int64_t sum = 0;
        for (size_t kk = 0; kk < k; ++kk)
            sum += std::abs(int32_t(wrow[kk]));
        most = std::max(most, sum);
    }
    return most;
}

/**
 * p.sumw_max from the chain's clamp budget (fxpClampFreeBudget) and
 * the operand window's largest |x|, which @p scan finds only when a
 * budget exists.
 */
template <typename Scan>
void
setClampLimit(LaneParams &p, int64_t budget, Scan scan)
{
    if (budget < 0)
        return;
    const uint32_t xmax = scan();
    p.sumw_max = xmax == 0 ? INT64_MAX : budget / xmax;
}

/**
 * rows(std::bool_constant<kClamp>()) for one row tile whose largest
 * row sum of |w| is @p sumw: kClamp is false when the bound proves the
 * clamp cannot fire. Returns whether the tile ran clamp-free.
 */
template <typename Rows>
bool
withClamp(const LaneParams &p, int64_t sumw, Rows rows)
{
    if (sumw <= p.sumw_max) {
        rows(std::false_type());
        return true;
    }
    rows(std::true_type());
    return false;
}

#if TIE_SIMD_X86

/** k steps per weight-pair table: kTileRows x 256 int32 = 4 KiB. */
constexpr size_t kPairChunk = 256;

/**
 * The (w, pbias) int16 pairs of tile rows [i, i + R) (weight rows
 * out.row(i + r)) for k steps [k0, k0 + kc), as int32 words
 * pairs[r * kPairChunk + kk]: madd_epi16 of one pair with an (x, 1)
 * pair is w * x + pbias, exactly. Returns the largest row sum of |w|
 * over those steps.
 */
template <size_t R, typename Out>
int64_t
buildPairs(size_t k, const int16_t *w, const Out &out, size_t i,
           size_t k0, size_t kc, int32_t pbias, int32_t *pairs)
{
    const uint32_t hi = static_cast<uint32_t>(pbias) << 16;
    int64_t most = 0;
    for (size_t r = 0; r < R; ++r) {
        const int16_t *wrow = w + out.row(i + r) * k + k0;
        int32_t sum = 0; // kc <= 256, so at most 2^23
        for (size_t kk = 0; kk < kc; ++kk) {
            pairs[r * kPairChunk + kk] = static_cast<int32_t>(
                hi | static_cast<uint16_t>(wrow[kk]));
            sum += std::abs(int32_t(wrow[kk]));
        }
        most = std::max<int64_t>(most, sum);
    }
    return most;
}

/**
 * The largest row sum of |w| of tile rows [i, i + R). A chain of one
 * chunk sums it while building the tile's pairs, which the kernel then
 * reuses; a longer one sums it in a pass of its own and the kernel
 * builds its pairs per chunk.
 */
template <size_t R, typename Out>
int64_t
tileAbsSum(size_t k, const int16_t *w, const Out &out, size_t i,
           int32_t pbias, int32_t *pairs)
{
    return k <= kPairChunk
               ? buildPairs<R>(k, w, out, i, 0, k, pbias, pairs)
               : maxRowAbsSum<R>(k, w, out, i);
}

/**
 * One MAC step of the chain: rounding shift, add, and with kClamp the
 * saturate.
 */
template <bool kClamp>
__attribute__((target("avx2"), always_inline)) inline __m256i
macAvx2(__m256i acc, __m256i prod_biased, __m256i pcnt, __m256i lo,
        __m256i hi)
{
    acc = _mm256_add_epi32(acc, _mm256_srav_epi32(prod_biased, pcnt));
    if constexpr (kClamp)
        acc = _mm256_min_epi32(_mm256_max_epi32(acc, lo), hi);
    return acc;
}

/** The largest |x| of rows [0, k) x columns [j0, j1), j1 - j0 >= 16. */
__attribute__((target("avx2"))) uint32_t
maxAbsAvx2(size_t k, size_t ldx, const int16_t *x, size_t j0, size_t j1)
{
    constexpr size_t W = 16;
    // abs(-32768) stays 0x8000, which the unsigned max reads as 32768.
    __m256i most = _mm256_setzero_si256();
    for (size_t kk = 0; kk < k; ++kk) {
        const int16_t *row = x + kk * ldx;
        for (size_t j = j0;; j += W) {
            j = j + W <= j1 ? j : j1 - W;
            most = _mm256_max_epu16(
                most, _mm256_abs_epi16(_mm256_loadu_si256(
                          reinterpret_cast<const __m256i *>(row + j))));
            if (j + W == j1)
                break;
        }
    }
    alignas(32) uint16_t lanes[W];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), most);
    return *std::max_element(lanes, lanes + W);
}

/**
 * Rows [i, i + R) x columns [j0, j1) (j1 - j0 >= 16) in R x 16 tiles:
 * R rows x 2 vectors of 8 int32 accumulators. The last tile overlaps
 * its predecessor instead of leaving a column remainder; the
 * recomputed columns get the same bits. Each tile's R rows of 16
 * int16 leave through simd::ops::storeRows into @p out. @p pairs
 * already holds the weight pairs when k fits one chunk (tileAbsSum).
 */
template <size_t R, bool kClamp, typename Out>
__attribute__((target("avx2"))) void
rowsAvx2(size_t k, size_t ldx, const int16_t *w, const int16_t *x,
         const LaneParams &p, Out out, size_t i, size_t j0, size_t j1,
         int32_t *pairs)
{
    constexpr size_t W = 16;
    const bool one_chunk = k <= kPairChunk;
    const __m256i one = _mm256_set1_epi16(1);
    const __m256i pcnt = _mm256_set1_epi32(p.pshift);
    const __m256i acc_hi = _mm256_set1_epi32(p.acc_hi);
    const __m256i acc_lo = _mm256_set1_epi32(p.acc_lo);
    const __m256i rbias = _mm256_set1_epi32(p.rbias);
    const __m256i rcnt = _mm256_set1_epi32(p.rshift);
    const __m256i out_hi = _mm256_set1_epi32(p.out_hi);
    const __m256i out_lo = _mm256_set1_epi32(p.out_lo);
    for (size_t j = j0;; j += W) {
        j = j + W <= j1 ? j : j1 - W;
        __m256i acc[R][2];
        for (size_t r = 0; r < R; ++r)
            acc[r][0] = acc[r][1] = _mm256_setzero_si256();
        for (size_t k0 = 0; k0 < k; k0 += kPairChunk) {
            const size_t kc = std::min(kPairChunk, k - k0);
            if (!one_chunk)
                buildPairs<R>(k, w, out, i, k0, kc, p.pbias, pairs);
            const int16_t *xk = x + k0 * ldx + j;
            for (size_t kk = 0; kk < kc; ++kk, xk += ldx) {
                // (x, 1) pairs: columns 0-3 | 8-11 and 4-7 | 12-15.
                const __m256i xv = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(xk));
                const __m256i xlo = _mm256_unpacklo_epi16(xv, one);
                const __m256i xhi = _mm256_unpackhi_epi16(xv, one);
                for (size_t r = 0; r < R; ++r) {
                    const __m256i wp =
                        _mm256_set1_epi32(pairs[r * kPairChunk + kk]);
                    acc[r][0] = macAvx2<kClamp>(
                        acc[r][0], _mm256_madd_epi16(xlo, wp), pcnt,
                        acc_lo, acc_hi);
                    acc[r][1] = macAvx2<kClamp>(
                        acc[r][1], _mm256_madd_epi16(xhi, wp), pcnt,
                        acc_lo, acc_hi);
                }
            }
        }
        __m256i v[R];
        for (size_t r = 0; r < R; ++r) {
            __m256i q[2];
            for (size_t h = 0; h < 2; ++h) {
                q[h] = _mm256_srav_epi32(
                    _mm256_add_epi32(acc[r][h], rbias), rcnt);
                q[h] = _mm256_min_epi32(_mm256_max_epi32(q[h], out_lo),
                                        out_hi);
            }
            // Values already sit inside int16 range, so the saturating
            // pack is a pure narrowing, and its per-128-bit-lane
            // interleave puts the two halves back in column order.
            v[r] = _mm256_packs_epi32(q[0], q[1]);
        }
        simd::ops::storeRowsAvx2<int16_t>(out, i, j, v);
        if (j + W == j1)
            return;
    }
}

// GCC 12's avx512fintrin.h seeds the pass-through operand of the
// unmasked _mm512_srav/max/min_epi32 with a self-initialised
// _mm512_undefined_epi32(), which -W(maybe-)uninitialized reports after
// inlining; no undefined lane is ever read. Clang neither raises it
// nor knows -Wmaybe-uninitialized.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/** macAvx2 on 16 lanes. */
template <bool kClamp>
__attribute__((target("avx512f,avx512bw"), always_inline)) inline __m512i
macAvx512(__m512i acc, __m512i prod_biased, __m512i pcnt, __m512i lo,
          __m512i hi)
{
    acc = _mm512_add_epi32(acc, _mm512_srav_epi32(prod_biased, pcnt));
    if constexpr (kClamp)
        acc = _mm512_min_epi32(_mm512_max_epi32(acc, lo), hi);
    return acc;
}

/** maxAbsAvx2 with 32 columns a step (j1 - j0 >= 32). */
__attribute__((target("avx512f,avx512bw"))) uint32_t
maxAbsAvx512(size_t k, size_t ldx, const int16_t *x, size_t j0,
             size_t j1)
{
    constexpr size_t W = 32;
    __m512i most = _mm512_setzero_si512();
    for (size_t kk = 0; kk < k; ++kk) {
        const int16_t *row = x + kk * ldx;
        for (size_t j = j0;; j += W) {
            j = j + W <= j1 ? j : j1 - W;
            most = _mm512_max_epu16(
                most, _mm512_abs_epi16(_mm512_loadu_si512(row + j)));
            if (j + W == j1)
                break;
        }
    }
    alignas(64) uint16_t lanes[W];
    _mm512_store_si512(lanes, most);
    return *std::max_element(lanes, lanes + W);
}

/**
 * rowsAvx2 with R x 32 tiles: R rows x 2 vectors of 16 int32 lanes
 * (j1 - j0 >= 32). The unpacks and the pack work per 128-bit lane
 * exactly as on AVX2, so the halves again land in column order.
 */
template <size_t R, bool kClamp, typename Out>
__attribute__((target("avx512f,avx512bw"))) void
rowsAvx512(size_t k, size_t ldx, const int16_t *w, const int16_t *x,
           const LaneParams &p, Out out, size_t i, size_t j0, size_t j1,
           int32_t *pairs)
{
    constexpr size_t W = 32;
    const bool one_chunk = k <= kPairChunk;
    const __m512i one = _mm512_set1_epi16(1);
    const __m512i pcnt = _mm512_set1_epi32(p.pshift);
    const __m512i acc_hi = _mm512_set1_epi32(p.acc_hi);
    const __m512i acc_lo = _mm512_set1_epi32(p.acc_lo);
    const __m512i rbias = _mm512_set1_epi32(p.rbias);
    const __m512i rcnt = _mm512_set1_epi32(p.rshift);
    const __m512i out_hi = _mm512_set1_epi32(p.out_hi);
    const __m512i out_lo = _mm512_set1_epi32(p.out_lo);
    for (size_t j = j0;; j += W) {
        j = j + W <= j1 ? j : j1 - W;
        __m512i acc[R][2];
        for (size_t r = 0; r < R; ++r)
            acc[r][0] = acc[r][1] = _mm512_setzero_si512();
        for (size_t k0 = 0; k0 < k; k0 += kPairChunk) {
            const size_t kc = std::min(kPairChunk, k - k0);
            if (!one_chunk)
                buildPairs<R>(k, w, out, i, k0, kc, p.pbias, pairs);
            const int16_t *xk = x + k0 * ldx + j;
            for (size_t kk = 0; kk < kc; ++kk, xk += ldx) {
                const __m512i xv = _mm512_loadu_si512(xk);
                const __m512i xlo = _mm512_unpacklo_epi16(xv, one);
                const __m512i xhi = _mm512_unpackhi_epi16(xv, one);
                for (size_t r = 0; r < R; ++r) {
                    const __m512i wp =
                        _mm512_set1_epi32(pairs[r * kPairChunk + kk]);
                    acc[r][0] = macAvx512<kClamp>(
                        acc[r][0], _mm512_madd_epi16(xlo, wp), pcnt,
                        acc_lo, acc_hi);
                    acc[r][1] = macAvx512<kClamp>(
                        acc[r][1], _mm512_madd_epi16(xhi, wp), pcnt,
                        acc_lo, acc_hi);
                }
            }
        }
        __m512i v[R];
        for (size_t r = 0; r < R; ++r) {
            __m512i q[2];
            for (size_t h = 0; h < 2; ++h) {
                q[h] = _mm512_srav_epi32(
                    _mm512_add_epi32(acc[r][h], rbias), rcnt);
                q[h] = _mm512_min_epi32(_mm512_max_epi32(q[h], out_lo),
                                        out_hi);
            }
            v[r] = _mm512_packs_epi32(q[0], q[1]);
        }
        simd::ops::storeRowsAvx512<int16_t>(out, i, j, v);
        if (j + W == j1)
            return;
    }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif // TIE_SIMD_X86

#if TIE_SIMD_NEON

/** One MAC step of the chain on 4 lanes (pcnt = -pshift). */
template <bool kClamp>
inline int32x4_t
macNeon(int32x4_t acc, int32x4_t prod_biased, int32x4_t pcnt,
        int32x4_t lo, int32x4_t hi)
{
    acc = vaddq_s32(acc, vshlq_s32(prod_biased, pcnt));
    if constexpr (kClamp)
        acc = vminq_s32(vmaxq_s32(acc, lo), hi);
    return acc;
}

/** maxAbsAvx2 with 8 columns a step (j1 - j0 >= 8). */
uint32_t
maxAbsNeon(size_t k, size_t ldx, const int16_t *x, size_t j0, size_t j1)
{
    constexpr size_t W = 8;
    // vabsq_s16 wraps -32768 to 0x8000, which reads as 32768 unsigned.
    uint16x8_t most = vdupq_n_u16(0);
    for (size_t kk = 0; kk < k; ++kk) {
        const int16_t *row = x + kk * ldx;
        for (size_t j = j0;; j += W) {
            j = j + W <= j1 ? j : j1 - W;
            most = vmaxq_u16(
                most, vreinterpretq_u16_s16(vabsq_s16(vld1q_s16(row + j))));
            if (j + W == j1)
                break;
        }
    }
    return vmaxvq_u16(most);
}

/**
 * rowsAvx2 with R x 8 tiles: R rows x 2 vectors of 4 int32 lanes.
 * vmlal_n_s16 widens pbias + w * x exactly, so no pair table.
 */
template <size_t R, bool kClamp, typename Out>
void
rowsNeon(size_t k, size_t ldx, const int16_t *w, const int16_t *x,
         const LaneParams &p, Out out, size_t i, size_t j0, size_t j1)
{
    constexpr size_t W = 8;
    const int32x4_t pbias = vdupq_n_s32(p.pbias);
    const int32x4_t pcnt = vdupq_n_s32(-p.pshift);
    const int32x4_t acc_hi = vdupq_n_s32(p.acc_hi);
    const int32x4_t acc_lo = vdupq_n_s32(p.acc_lo);
    const int32x4_t rbias = vdupq_n_s32(p.rbias);
    const int32x4_t rcnt = vdupq_n_s32(-p.rshift);
    const int32x4_t out_hi = vdupq_n_s32(p.out_hi);
    const int32x4_t out_lo = vdupq_n_s32(p.out_lo);
    const int16_t *wrow[R];
    for (size_t r = 0; r < R; ++r)
        wrow[r] = w + out.row(i + r) * k;
    for (size_t j = j0;; j += W) {
        j = j + W <= j1 ? j : j1 - W;
        int32x4_t acc[R][2];
        for (size_t r = 0; r < R; ++r)
            acc[r][0] = acc[r][1] = vdupq_n_s32(0);
        const int16_t *xk = x + j;
        for (size_t kk = 0; kk < k; ++kk, xk += ldx) {
            const int16x8_t xv = vld1q_s16(xk);
            const int16x4_t xlo = vget_low_s16(xv);
            const int16x4_t xhi = vget_high_s16(xv);
            for (size_t r = 0; r < R; ++r) {
                const int16_t wv = wrow[r][kk];
                acc[r][0] = macNeon<kClamp>(
                    acc[r][0], vmlal_n_s16(pbias, xlo, wv), pcnt, acc_lo,
                    acc_hi);
                acc[r][1] = macNeon<kClamp>(
                    acc[r][1], vmlal_n_s16(pbias, xhi, wv), pcnt, acc_lo,
                    acc_hi);
            }
        }
        int16x8_t v[R];
        for (size_t r = 0; r < R; ++r) {
            int32x4_t q[2];
            for (size_t h = 0; h < 2; ++h) {
                q[h] = vshlq_s32(vaddq_s32(acc[r][h], rbias), rcnt);
                q[h] = vminq_s32(vmaxq_s32(q[h], out_lo), out_hi);
            }
            v[r] = vcombine_s16(vqmovn_s32(q[0]), vqmovn_s32(q[1]));
        }
        simd::ops::storeRowsNeon<int16_t>(out, i, j, v);
        if (j + W == j1)
            return;
    }
}

#endif // TIE_SIMD_NEON

/**
 * fxpBlock / fxpStage for one epilogue type. Each call scans its
 * operand window for the largest |x| once, and each row tile then
 * runs the clamp-free chain when its weights prove it cannot saturate.
 */
template <typename Out>
void
fxpKernel(simd::Isa isa, size_t k, size_t ldx, const int16_t *w,
          const int16_t *x, const MacFormat &fmt, Out out, size_t i0,
          size_t i1, size_t j0, size_t j1)
{
    // A window narrower than one tile (two vectors of int32 lanes) has
    // no full tile to run: under AVX-512 it takes the AVX2 tile, and
    // below that the scalar chain.
    if (isa == simd::Isa::Avx512 && j1 - j0 < 2 * simd::fxpLanes(isa))
        isa = simd::Isa::Avx2;
    if (isa == simd::Isa::Scalar || !fxpSimdEligible(fmt) ||
        j1 - j0 < 2 * simd::fxpLanes(isa)) {
        scalarBlock(k, ldx, w, x, fmt, out, i0, i1, j0, j1);
        return;
    }
    LaneParams p = laneParams(fmt);
    const int64_t budget = fxpClampFreeBudget(fmt, k);
    size_t clamp_free = 0;
    switch (isa) {
#if TIE_SIMD_X86
      case simd::Isa::Avx512:
        setClampLimit(p, budget,
                      [&] { return maxAbsAvx512(k, ldx, x, j0, j1); });
        forRowTiles(i0, i1, [&](size_t i, auto rows) {
            constexpr size_t R = decltype(rows)::value;
            int32_t pairs[kTileRows * kPairChunk];
            clamp_free += withClamp(
                p, tileAbsSum<R>(k, w, out, i, p.pbias, pairs),
                [&](auto clamp) {
                    rowsAvx512<R, decltype(clamp)::value>(
                        k, ldx, w, x, p, out, i, j0, j1, pairs);
                });
        });
        break;
      case simd::Isa::Avx2:
        setClampLimit(p, budget,
                      [&] { return maxAbsAvx2(k, ldx, x, j0, j1); });
        forRowTiles(i0, i1, [&](size_t i, auto rows) {
            constexpr size_t R = decltype(rows)::value;
            int32_t pairs[kTileRows * kPairChunk];
            clamp_free += withClamp(
                p, tileAbsSum<R>(k, w, out, i, p.pbias, pairs),
                [&](auto clamp) {
                    rowsAvx2<R, decltype(clamp)::value>(
                        k, ldx, w, x, p, out, i, j0, j1, pairs);
                });
        });
        break;
#endif
#if TIE_SIMD_NEON
      case simd::Isa::Neon:
        setClampLimit(p, budget,
                      [&] { return maxAbsNeon(k, ldx, x, j0, j1); });
        forRowTiles(i0, i1, [&](size_t i, auto rows) {
            constexpr size_t R = decltype(rows)::value;
            clamp_free += withClamp(
                p, maxRowAbsSum<R>(k, w, out, i), [&](auto clamp) {
                    rowsNeon<R, decltype(clamp)::value>(k, ldx, w, x, p,
                                                        out, i, j0, j1);
                });
        });
        break;
#endif
      default:
        TIE_PANIC("fxpBlock dispatched to ", simd::isaName(isa),
                  ", which this build cannot execute");
    }
    if (obs::enabled()) {
        obs::StatRegistry &reg = obs::StatRegistry::instance();
        static obs::Counter &free_tiles = reg.counter(
            "fxp.tiles_clamp_free",
            "fixed-point row tiles run without the accumulator clamp");
        static obs::Counter &clamped_tiles = reg.counter(
            "fxp.tiles_clamped",
            "fixed-point row tiles run with the accumulator clamp");
        const size_t tiles = (i1 - i0 + kTileRows - 1) / kTileRows;
        free_tiles.add(clamp_free);
        clamped_tiles.add(tiles - clamp_free);
    }
}

} // namespace

void
fxpBlock(simd::Isa isa, size_t k, size_t ldx, size_t ldo,
         const int16_t *w, const int16_t *x, const MacFormat &fmt,
         int16_t *out, size_t i0, size_t i1, size_t j0, size_t j1)
{
    fxpKernel(isa, k, ldx, w, x, fmt, gemm::RowsOut<int16_t, false>{out, ldo},
              i0, i1, j0, j1);
}

void
fxpStage(simd::Isa isa, size_t k, size_t ldx, const int16_t *w,
         const int16_t *x, const MacFormat &fmt,
         const gemm::StageOut<int16_t> &out, size_t i0, size_t i1,
         size_t j0, size_t j1)
{
    if (out.ld != 0)
        fxpKernel(isa, k, ldx, w, x, fmt,
                  gemm::RowsOut<int16_t, false>{out.dst + out.q0, out.ld},
                  i0, i1, j0, j1);
    else
        fxpKernel(isa, k, ldx, w, x, fmt, out, i0, i1, j0, j1);
}

} // namespace tie
