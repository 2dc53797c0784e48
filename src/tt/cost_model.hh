/**
 * @file
 * Analytical operation-count models from paper Sec. 3.1:
 *
 *  - Eqn. (3): multiplications of the naive scheme,
 *  - Eqn. (7): theoretical minimum multiplications,
 *  - the compact scheme's actual count (sum over its d GEMMs), which
 *    matches Eqn. (7) up to boundary terms of lower order,
 *  - the storage overhead of the multi-stage scheme (end of Sec. 3.2).
 */

#ifndef TIE_TT_COST_MODEL_HH
#define TIE_TT_COST_MODEL_HH

#include "tt/tt_shape.hh"

namespace tie {

/**
 * Capacity of one of TIE's two working SRAMs (paper Table 5: 2 x 384
 * KB). TieArchConfig defaults to it, and inference sessions size their
 * batch tiles so one ping-pong half fits it.
 */
inline constexpr size_t kWorkingSramBytes = 384 * 1024;

/** Eqn. (3): MUL_naive = M * N * sum_i r_i r_{i-1}. */
size_t multNaive(const TtLayerConfig &cfg);

/**
 * Eqn. (7): theoretical minimum
 *   sum_l (m_l - 1) prod_{j>l} m_j * sum_{i<=l} r_i r_{i-1} prod_{t<=i} n_t.
 */
size_t multTheoreticalMin(const TtLayerConfig &cfg);

/**
 * Actual multiplications of the compact scheme:
 *   sum_h (m_h r_{h-1}) (n_h r_h) (prod_{k<h} n_k prod_{k>h} m_k).
 */
size_t multCompact(const TtLayerConfig &cfg);

/**
 * Per-stage compact counts, index h-1 = the stage using core G~_h —
 * the same stage-first order as InferStats::stage_mults.
 */
std::vector<size_t> multCompactPerStage(const TtLayerConfig &cfg);

/**
 * Multiplications of the Fig.-5 partially-parallel scheme:
 * one shared stage-d GEMM plus per-element chains for the rest.
 */
size_t multPartialParallel(const TtLayerConfig &cfg);

/**
 * Peak intermediate element count of the compact scheme — the capacity
 * one working SRAM must hold (Sec. 3.2: both input and output of a
 * stage are buffered, hence ping-pong memories of this size each).
 */
size_t workingBufferElems(const TtLayerConfig &cfg);

/** Dense mat-vec multiplications M * N for reference. */
size_t multDense(const TtLayerConfig &cfg);

/**
 * Tensor-core (weight) memory accesses of the naive scheme: every
 * multiplication of Eqn. (2) fetches one core element, so the cores
 * are re-read for every output element — the "intensive memory access
 * to all tensor cores" of paper Sec. 1.
 */
size_t weightAccessesNaive(const TtLayerConfig &cfg);

/**
 * Ideal weight accesses of the compact scheme: each stage streams its
 * core once (every element read exactly once per inference).
 */
size_t weightAccessesCompactIdeal(const TtLayerConfig &cfg);

/**
 * Weight accesses of the compact scheme as the TIE schedule actually
 * issues them: the core column is re-broadcast for every
 * (row-block, column-block) pass of n_mac words per cycle.
 */
size_t weightAccessesScheduled(const TtLayerConfig &cfg, size_t n_pe,
                               size_t n_mac);

} // namespace tie

#endif // TIE_TT_COST_MODEL_HH
