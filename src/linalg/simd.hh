/**
 * @file
 * Portable SIMD kernel layer with runtime dispatch.
 *
 * The host-side analogue of TIE's 16x16 parallel MAC array is explicit
 * data parallelism in the GEMM inner loops. This header exposes one
 * ISA enum and a set of kernel entry points that take the ISA as an
 * explicit argument; the process-wide path is resolved exactly once
 * (activeIsa) from cpuid-style feature detection, overridable with the
 * TIE_SIMD environment variable (avx512|avx2|neon|scalar) for
 * testing. kIsas lists every path once, most preferred first; the
 * resolver, the support mask, the tests and the benches all walk it.
 *
 * Avx512 (AVX-512F + AVX-512BW) runs 512-bit twins of the packed
 * f32/f64 and fixed-point register tiles; their column remainders and
 * interleave4 run the AVX2 code under it.
 *
 * Determinism contract (see docs/performance.md):
 *  - Every kernel vectorizes across *output columns* only: each output
 *    element keeps its own full k-ascending reduction chain, exactly as
 *    the scalar reference runs it, and the SIMD code uses separate
 *    multiply and add (never FMA). Float and double results are
 *    therefore bit-identical to the scalar path for every ISA, every
 *    shape (including remainder columns), and every thread count.
 *  - The fixed-point kernels replay the saturating 24-bit MAC chain in
 *    32-bit lanes (quant/fxp_simd.hh) and are bit-identical to the
 *    scalar chain by construction.
 *
 * Kernels for ISAs the host cannot execute are never dispatched to:
 * requesting one via TIE_SIMD is a fatal user error.
 */

#ifndef TIE_LINALG_SIMD_HH
#define TIE_LINALG_SIMD_HH

#include <cstddef>

namespace tie {
namespace simd {

/**
 * Dispatchable instruction sets. The values are stable: they are the
 * exported simd.isa gauge. Value 1 (the former SSE4.2 path) is
 * retired, not reused; x86 hosts without AVX2 run Scalar.
 */
enum class Isa
{
    Scalar = 0, ///< portable reference loops
    Avx2 = 2,   ///< x86 AVX2 (256-bit lanes)
    Neon = 3,   ///< AArch64 NEON (128-bit lanes)
    Avx512 = 4, ///< x86 AVX-512F + AVX-512BW (512-bit lanes)
};

/** Every Isa, most preferred first: the order resolveIsa picks in. */
inline constexpr Isa kIsas[] = {Isa::Avx512, Isa::Avx2, Isa::Neon,
                                Isa::Scalar};

/** Stable lowercase name, matching the TIE_SIMD spelling. */
const char *isaName(Isa isa);

/** True when this build can execute @p isa on the current host. */
bool isaSupported(Isa isa);

/** Bit per Isa value; bit 0 (Scalar) is always set. */
unsigned supportedMask();

/**
 * Resolve the dispatch path from a TIE_SIMD value and a support mask
 * (supportedMask() in production; tests pass synthetic masks). An
 * unset/empty value picks the first supported ISA of kIsas (AVX-512 >
 * AVX2 > NEON > scalar); a recognised value must be supported
 * by the mask and anything else is a fatal user error. Exposed
 * separately from activeIsa so tests can cover the parsing without
 * forking processes per ISA.
 */
Isa resolveIsa(const char *env_value, unsigned supported_mask);

/**
 * The process-wide dispatch path, resolved once on first use from
 * TIE_SIMD and the host CPU. Stable for the process lifetime; use the
 * explicit-Isa kernel entry points below to exercise other paths in
 * tests and benches.
 */
Isa activeIsa();

/**
 * Float lanes per vector op: 16 (AVX-512), 8 (AVX2), 4 (NEON), 1
 * (scalar).
 */
size_t floatLanes(Isa isa);

/** int32 accumulator lanes of the fxp MAC chain (same as floatLanes). */
size_t fxpLanes(Isa isa);

/**
 * Float fast-arithmetic policy of the packed kernels. The default
 * keeps the determinism contract above: separate multiply and add,
 * bit-identical to scalar on every ISA. TIE_FAST=1 permits FMA and
 * fused multiply-accumulate chains in the *float32* packed
 * microkernels only — f64 and the fixed-point MAC chain stay bit-exact
 * regardless. The accuracy contract of the fast path (a per-element
 * rounding bound, asserted in tests/test_simd.cc) is documented in
 * docs/performance.md.
 */
enum class FastMode
{
    Env, ///< resolve from TIE_FAST ("0"/unset = Off, "1" = On);
         ///< a malformed value is a fatal error.
    Off, ///< bit-exact default (separate mul + add everywhere)
    On,  ///< allow FMA in f32 packed kernels (documented error bound)
};

/**
 * Pure resolver for a TIE_FAST value: unset/empty/"0" is Off, "1" is
 * On, anything else is a fatal user error (matching the TIE_SIMD /
 * TIE_THREADS strictness). Exposed separately so tests cover the
 * parsing without forking per value.
 */
FastMode resolveFastMode(const char *env_value);

/**
 * Resolve Env against the TIE_FAST environment variable; Off/On pass
 * through untouched.
 */
FastMode resolveFastMode(FastMode requested);

/**
 * Register-blocked microkernel over a packed A operand (linalg/pack.hh
 * layout: pack::kRowPanel-row panels, column-major within the panel):
 *
 *   C[i0:i1, j0:j1) += packedA * B
 *
 * where B is row-major with leading dimension @p ldb and C row-major
 * with leading dimension @p ldc, both indexed by the same absolute
 * column j (B element (kk, j) is b[kk * ldb + j]). @p i0 must be a
 * multiple of pack::kRowPanel; @p i1 may end mid-panel (the packed
 * rows past it run the scalar chain, and the zero-padded panel tail
 * is never written).
 *
 * This is the one float GEMM kernel family: every float/double
 * product in the library (matmul, TT stages, calibration) runs it.
 * The kernel holds a pack::kRowPanel x (2 vectors) accumulator block
 * in registers, so B is streamed kRowPanel times less often than by a
 * one-row kernel — the packing win. Each output element still runs
 * its full ascending-k chain with separate multiply and add, so with
 * @p fast false results are bit-identical to the naive row-major
 * i-k-j loop and to Isa::Scalar for every ISA and every panel split.
 *
 * @p fast true permits FMA in the f32 kernels on ISAs that have it
 * (AVX2+FMA, AVX-512, NEON); the f64 kernels ignore it. Each lane
 * fuses the same chain, so the fast AVX-512 and AVX2+FMA bits agree.
 * See FastMode for the accuracy contract.
 */
void gemmPackedF32(Isa isa, bool fast, size_t k, const float *pa,
                   const float *b, size_t ldb, float *c, size_t ldc,
                   size_t i0, size_t i1, size_t j0, size_t j1);
void gemmPackedF64(Isa isa, bool fast, size_t k, const double *pa,
                   const double *b, size_t ldb, double *c, size_t ldc,
                   size_t i0, size_t i1, size_t j0, size_t j1);

/**
 * 4-way interleave of four rows @p lds elements apart:
 *
 *   dst[4 * c + i] = src[i * lds + c]   for c < len, i < 4
 *
 * i.e. a 4 x len transpose written as 4 * len consecutive elements —
 * the inter-stage store of every TT stage with m_h = 4
 * (tt/stage_program.hh). One kernel per ISA for 2-, 4- and 8-byte
 * elements (AVX2 unpack + lane permutes, NEON vst4); columns
 * past the last full vector take the scalar loop. Pure data
 * movement: bit-identical on every ISA. Instantiated for int16_t,
 * float and double.
 */
template <typename T>
void interleave4(Isa isa, const T *src, size_t lds, size_t len, T *dst);

} // namespace simd
} // namespace tie

#endif // TIE_LINALG_SIMD_HH
