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
#include "linalg/simd_ops.hh"

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

constexpr size_t MR = pack::kRowPanel;

/**
 * Scalar reference over a packed A operand (linalg/pack.hh layout):
 * every output element runs the naive i-k-j loop's chain (ascending
 * k, separate multiply and add), from C when the epilogue adds onto it
 * and from zero otherwise, reading A through the panel interleave
 * instead of row-major. Handles any row range, including mid-panel
 * starts and the zero-padded tail panel (whose padded rows are simply
 * skipped). The rows of one panel go kChunk columns at a time through
 * a block of accumulators, stored through the epilogue (gemm::RowsOut
 * or gemm::StageOut); a grouped stage panel stores each column's 4
 * rows side by side.
 */
template <typename T, typename Out>
void
tileScalar(size_t k, const T *pa, const T *b, size_t ldb, Out &out,
           size_t i0, size_t i1, size_t j0, size_t j1)
{
    constexpr size_t kChunk = 64;
    T acc[MR][kChunk];
    for (size_t i = i0; i < i1;) {
        const size_t p = i / MR * MR;
        const size_t nr = std::min(i1, p + MR) - i;
        const T *ap = pa + p * k + (i - p);
        for (size_t j = j0; j < j1; j += kChunk) {
            const size_t w = std::min(kChunk, j1 - j);
            for (size_t r = 0; r < nr; ++r)
                for (size_t c = 0; c < w; ++c)
                    acc[r][c] = Out::kLoad ? *out.at(i + r, j + c) : T(0);
            for (size_t kk = 0; kk < k; ++kk) {
                const T *brow = b + kk * ldb + j;
                for (size_t r = 0; r < nr; ++r) {
                    const T a = ap[kk * MR + r];
                    for (size_t c = 0; c < w; ++c)
                        acc[r][c] += a * brow[c];
                }
            }
            if constexpr (Out::kScatter) {
                // The chunk as one run where it lands as one, else
                // column by column.
                T *run = nr == MR ? out.take(p, j, w) : nullptr;
                for (size_t c = 0; c < w; ++c) {
                    T *d = run ? run + 4 * c : nullptr;
                    if (!run && nr == MR)
                        d = out.take(p, j + c, 1);
                    for (size_t r = 0; r < nr; ++r)
                        *(d ? d + r : out.at(i + r, j + c)) = acc[r][c];
                }
            } else {
                for (size_t r = 0; r < nr; ++r)
                    for (size_t c = 0; c < w; ++c)
                        *out.at(i + r, j + c) = acc[r][c];
            }
        }
        i += nr;
    }
}

/**
 * The packed kernel of one ISA over rows [i0, i1) and columns
 * [j0, j1), with one k-loop for every ISA: packedBlock holds a
 * kRowPanel x NV-vector accumulator block in registers, k innermost.
 * Per k step kRowPanel broadcasts from the packed panel and NV B
 * vector loads feed NV * kRowPanel multiply-adds, so B is streamed
 * kRowPanel times less often than by a one-row kernel. Accumulators
 * start from C when the epilogue adds onto it and from zero otherwise;
 * separate multiply and add keeps every element's chain bit-identical
 * to tileScalar, and Fma (TIE_FAST=1, f32 only) fuses each step. Each
 * vector's 4 rows then leave through ops::storeRows.
 *
 * Full row panels run 2-vector blocks and at most one 1-vector block;
 * the rows of a partial panel run tileScalar, and the columns past the
 * last whole vector run TAIL: tileScalar, or under AVX-512 the AVX2
 * kernel. The macro stamps the kernel out under each target (ATTR),
 * like TIE_STORE_ROWS. The AVX2 target includes FMA for the Fma
 * instantiation; contraction is off for the whole build, so the exact
 * one emits no fused op and runs on any AVX2 host.
 */
// clang-format off
#define TIE_PACKED_KERNEL(ATTR, ISA, TAIL)                               \
    template <size_t NV, bool Fma, typename T, typename Out>             \
    ATTR __attribute__((always_inline)) inline void                      \
    packedBlock##ISA(size_t k, const T *ap, const T *b, size_t ldb,      \
                     Out &out, size_t i, size_t j)                       \
    {                                                                    \
        using O = ops::ISA<T>;                                           \
        typename O::V acc[NV][MR];                                       \
        for (size_t v = 0; v < NV; ++v)                                  \
            for (size_t r = 0; r < MR; ++r) {                            \
                if constexpr (Out::kLoad)                                \
                    acc[v][r] = O::load(out.at(i + r, j + v * O::W));    \
                else                                                     \
                    acc[v][r] = O::zero();                               \
            }                                                            \
        for (size_t kk = 0; kk < k; ++kk) {                              \
            const T *av = ap + kk * MR;                                  \
            typename O::V bv[NV];                                        \
            for (size_t v = 0; v < NV; ++v)                              \
                bv[v] = O::load(b + kk * ldb + j + v * O::W);            \
            for (size_t r = 0; r < MR; ++r) {                            \
                const typename O::V a = O::bcast(av[r]);                 \
                for (size_t v = 0; v < NV; ++v) {                        \
                    if constexpr (Fma)                                   \
                        acc[v][r] = O::fma(a, bv[v], acc[v][r]);         \
                    else                                                 \
                        acc[v][r] = O::add(acc[v][r], O::mul(a, bv[v])); \
                }                                                        \
            }                                                            \
        }                                                                \
        ops::storeRows##ISA<T>(out, i, j, acc[0]);                       \
        if constexpr (NV > 1)                                            \
            ops::storeRows##ISA<T>(out, i, j + O::W, acc[1]);            \
    }                                                                    \
                                                                         \
    template <typename T, bool Fma, typename Out>                        \
    ATTR void                                                            \
    packed##ISA(size_t k, const T *pa, const T *b, size_t ldb, Out out,  \
                size_t i0, size_t i1, size_t j0, size_t j1)              \
    {                                                                    \
        constexpr size_t W = ops::ISA<T>::W;                             \
        const size_t jv = j0 + (j1 - j0) / W * W;                        \
        size_t i = i0;                                                   \
        for (; i + MR <= i1; i += MR) {                                  \
            const T *ap = pa + i * k;                                    \
            size_t j = j0;                                               \
            for (; j + 2 * W <= jv; j += 2 * W)                          \
                packedBlock##ISA<2, Fma>(k, ap, b, ldb, out, i, j);      \
            if (j < jv)                                                  \
                packedBlock##ISA<1, Fma>(k, ap, b, ldb, out, i, j);      \
        }                                                                \
        if (i < i1)                                                      \
            tileScalar(k, pa, b, ldb, out, i, i1, j0, jv);               \
        if (jv < j1)                                                     \
            TAIL(k, pa, b, ldb, out, i0, i1, jv, j1);                    \
    }

#if TIE_SIMD_X86
TIE_PACKED_KERNEL(__attribute__((target("avx2,fma"))), Avx2, tileScalar)
TIE_PACKED_KERNEL(__attribute__((target("avx512f,avx512bw"))), Avx512,
                  (packedAvx2<T, Fma>))
#endif
#if TIE_SIMD_NEON
TIE_PACKED_KERNEL(, Neon, tileScalar)
#endif
// clang-format on

/**
 * Runs the packed kernel of @p isa into @p out. f64 is bit-exact under
 * every FastMode (the accuracy contract covers f32 only), so @p fast
 * is dropped for it; the scalar path has no FMA to permit, so fast is
 * exact there.
 */
template <typename T, typename Out>
void
packedKernel(Isa isa, bool fast, size_t k, const T *pa, const T *b,
             size_t ldb, Out out, size_t i0, size_t i1, size_t j0,
             size_t j1)
{
    const bool fma = fast && std::is_same_v<T, float>;
    switch (isa) {
      case Isa::Scalar:
        tileScalar(k, pa, b, ldb, out, i0, i1, j0, j1);
        return;
#if TIE_SIMD_X86
      case Isa::Avx512:
        if (fma)
            packedAvx512<T, true>(k, pa, b, ldb, out, i0, i1, j0, j1);
        else
            packedAvx512<T, false>(k, pa, b, ldb, out, i0, i1, j0, j1);
        return;
      case Isa::Avx2:
        // AVX2 does not strictly imply FMA3 (e.g. VIA Nano); guard the
        // fused kernel on the actual feature and fall back to exact.
        if (fma && __builtin_cpu_supports("fma"))
            packedAvx2<T, true>(k, pa, b, ldb, out, i0, i1, j0, j1);
        else
            packedAvx2<T, false>(k, pa, b, ldb, out, i0, i1, j0, j1);
        return;
#endif
#if TIE_SIMD_NEON
      case Isa::Neon:
        if (fma)
            packedNeon<T, true>(k, pa, b, ldb, out, i0, i1, j0, j1);
        else
            packedNeon<T, false>(k, pa, b, ldb, out, i0, i1, j0, j1);
        return;
#endif
      default:
        break;
    }
    TIE_PANIC("packed kernel dispatched to ", isaName(isa),
              ", which this build cannot execute");
}

} // namespace

void
gemmPackedF32(Isa isa, bool fast, size_t k, const float *pa,
              const float *b, size_t ldb, float *c, size_t ldc,
              size_t i0, size_t i1, size_t j0, size_t j1)
{
    packedKernel(isa, fast, k, pa, b, ldb, gemm::RowsOut<float, true>{c, ldc},
                 i0, i1, j0, j1);
}

void
gemmPackedF64(Isa isa, bool fast, size_t k, const double *pa,
              const double *b, size_t ldb, double *c, size_t ldc,
              size_t i0, size_t i1, size_t j0, size_t j1)
{
    packedKernel(isa, fast, k, pa, b, ldb,
                 gemm::RowsOut<double, true>{c, ldc}, i0, i1, j0, j1);
}

template <typename T>
void
stagePacked(Isa isa, bool fast, size_t k, const T *pa, const T *b,
            size_t ldb, const gemm::StageOut<T> &out, size_t i0, size_t i1,
            size_t j0, size_t j1)
{
    if (out.ld != 0)
        packedKernel(isa, fast, k, pa, b, ldb,
                     gemm::RowsOut<T, false>{out.dst + out.q0, out.ld}, i0,
                     i1, j0, j1);
    else
        packedKernel(isa, fast, k, pa, b, ldb, out, i0, i1, j0, j1);
}

template void stagePacked(Isa, bool, size_t, const float *, const float *,
                          size_t, const gemm::StageOut<float> &, size_t,
                          size_t, size_t, size_t);
template void stagePacked(Isa, bool, size_t, const double *,
                          const double *, size_t,
                          const gemm::StageOut<double> &, size_t, size_t,
                          size_t, size_t);

} // namespace simd
} // namespace tie
