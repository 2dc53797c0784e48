/**
 * @file
 * SIMD implementation of the TIE fixed-point MAC chain.
 *
 * The datapath semantics (quant/fxp.hh) make the k order of every
 * output element significant: each product is pre-shifted with
 * rounding, then accumulated with saturation into a 24-bit register.
 * The SIMD kernels therefore vectorize across *output columns* only —
 * each int32 lane replays one element's full sequential chain
 * (multiply, rounding shift, saturating accumulate, requantize) with
 * the exact integer semantics of macProduct / accumulate /
 * requantizeAcc — so every ISA is bit-identical to the scalar chain by
 * construction.
 *
 * Register tile: one kernel per ISA holds 4 rows x 2 vectors of int32
 * accumulators (4 x 32 columns on AVX-512, 4 x 16 on AVX2, 4 x 8 on
 * NEON), so each operand load feeds 4 rows, each weight
 * broadcast feeds 2 column vectors, and 8 independent chains hide the
 * add -> max -> min latency of the saturating accumulate. Row windows
 * that are not a multiple of 4 end with one 1-3 row tile; a column
 * window that is not a multiple of the tile width ends with a tile
 * overlapping its predecessor (the recomputed columns get the same
 * bits); a window narrower than one tile takes the AVX2 tile under
 * AVX-512 (16-31 columns) and otherwise the scalar chain.
 *
 * Pair product: on x86, one madd_epi16 of the (x, 1) and
 * (w, 2^(shift-1)) 16-bit pairs yields the rounded product's
 * w * x + bias exactly, where the bias pairs of a 4-row tile come
 * from a weight-pair table on the stack (256 k steps at a time); NEON's
 * vmlal_n_s16 widens bias + w * x the same way. VNNI's vpdpwssd is
 * not used: it adds two products before accumulating, while the chain
 * saturates after every product.
 *
 * Eligibility (fxpSimdEligible): the bias must fit an int16
 * (product_shift <= 15), and the lane math runs in 32-bit registers,
 * which is exact only when the intermediate |acc + product| cannot
 * exceed int32. The TIE datapath (16-bit operands, 24-bit accumulator,
 * 8-bit product shift) qualifies with a wide margin. Ineligible
 * formats always take the scalar chain, on every ISA.
 */

#ifndef TIE_QUANT_FXP_SIMD_HH
#define TIE_QUANT_FXP_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "linalg/simd.hh"

namespace tie {

struct MacFormat;

/**
 * True when @p fmt's MAC chain is exact in the vector kernels: a
 * product shift of at most 15 (its rounding bias is an int16 operand
 * of the pair product), an accumulator and requantize shift narrow
 * enough that no intermediate exceeds int32, and a non-negative
 * requantize shift (the datapath never widens on output).
 */
bool fxpSimdEligible(const MacFormat &fmt);

/**
 * out[i0:i1, j0:j1) of the fixed-point GEMM out = w (m x k) * x, all
 * row-major int16 raw values: x has row stride @p ldx and out row
 * stride @p ldo, so the kernel reads one column panel of the operand in
 * place and writes a staging tile (ldo = gemm::kColBlock) — the block
 * kernel behind fxpMatmulRaw (ldx = ldo = n) and the fixed-point
 * session stages. Isa::Scalar (or an ineligible @p fmt) runs the
 * reference chain; every other ISA is bit-identical to it.
 */
void fxpBlock(simd::Isa isa, size_t k, size_t ldx, size_t ldo,
              const int16_t *w, const int16_t *x, const MacFormat &fmt,
              int16_t *out, size_t i0, size_t i1, size_t j0, size_t j1);

} // namespace tie

#endif // TIE_QUANT_FXP_SIMD_HH
