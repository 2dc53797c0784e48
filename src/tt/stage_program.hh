/**
 * @file
 * The main controller's layer program (paper Fig. 8, "Main
 * Controller"; Sec. 5.4 flexibility) — shared by the cycle-accurate
 * simulator (arch/tie_sim.hh) and the host inference sessions
 * (tt/infer_session.hh), so both walk one plan.
 *
 * TIE is configured per layer with a handful of scalars per stage —
 * not with lookup tables: the working-SRAM read and write schemes
 * (Algorithm 2) compute every operand element's coordinates
 * *arithmetically* from the stage geometry. StageDescriptor holds
 * exactly those scalars. operandSource() is the read-side address
 * generator and operandDest() the write-side one — pure integer
 * functions the hardware implements with dividers by constant/modulo
 * counters. Tests prove both equal to the TransformSpec permutation
 * table (tt/tt_transform.hh) for every configuration.
 */

#ifndef TIE_TT_STAGE_PROGRAM_HH
#define TIE_TT_STAGE_PROGRAM_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "linalg/gemm.hh"
#include "linalg/simd.hh"
#include "tt/tt_shape.hh"

namespace tie {

/** Control scalars for one compact-scheme stage (core h). */
struct StageDescriptor
{
    uint32_t core_index = 0;   ///< h (1-based); stage order is d..1
    uint32_t rows = 0;         ///< NGrow = m_h * r_{h-1}
    uint32_t inner = 0;        ///< NGcol = n_h * r_h
    uint32_t cols = 0;         ///< NVcol = prod n_{<h} * prod m_{>h}

    /** Read side (operandSource). When identity is set the source
     *  holds the operand directly (stage d reading X'); otherwise it
     *  holds V_{h+1} and the generator inverts the stage-(h+1)
     *  transform. */
    bool identity = true;
    uint32_t r = 0;        ///< r_h (rank shared by operand rows and src)
    uint32_t m_next = 0;   ///< m_{h+1}
    uint32_t src_seg = 0;  ///< stageCols(h+1) / n_h: one j_h run of src
    uint32_t src_cols = 0; ///< stageCols(h+1) (per sample)

    /** Write side (operandDest). When store_identity is set (stage 1)
     *  the output V_1 is stored as computed; otherwise it lands in the
     *  operand of stage h-1 with the stage-h transform applied. */
    bool store_identity = true;
    uint32_t r_out = 0;    ///< r_{h-1} (output rows = m_out * r_out)
    uint32_t m_out = 0;    ///< m_h
    uint32_t seg = 0;      ///< stageCols(h) / n_{h-1}: one j_{h-1} run
    uint32_t dst_cols = 0; ///< stageCols(h-1) (per sample)

    bool relu = false;  ///< activation units active (stage 1 only)
};

/** A compiled layer: the descriptor sequence the controller walks. */
struct LayerProgram
{
    TtLayerConfig layer;
    std::vector<StageDescriptor> stages; ///< order h = d .. 1

    /** Compile a TT layer into controller state. */
    static LayerProgram compile(const TtLayerConfig &cfg,
                                bool relu_last = false);
};

/**
 * The read-side address generator: source coordinates (row, column)
 * inside the stored matrix for operand element (k, q) of this stage
 * (single sample; batching offsets the column by sample * src_cols
 * outside).
 *
 * Derivation (inverse of the Eqn.-10 transform; see
 * tt/tt_transform.cc): with k = j_h * r + t and
 * q = c * m_{h+1} + i_{h+1},
 *   src row = i_{h+1} * r + t,
 *   src col = j_h * src_seg + c.
 */
std::pair<uint32_t, uint32_t> operandSource(const StageDescriptor &d,
                                            uint32_t k, uint32_t q);

/**
 * The write-side address generator: where output element (p, q) of
 * this stage lands in the operand of the next stage (h-1). Columns
 * are batched: sample b owns output columns [b * cols, (b+1) * cols)
 * and operand columns [b * dst_cols, (b+1) * dst_cols). With
 * p = i_h * r_out + t and q = b * cols + j_{h-1} * seg + c,
 *   dst row = j_{h-1} * r_out + t,
 *   dst col = b * dst_cols + c * m_out + i_h.
 * The inverse of operandSource of stage h-1.
 */
std::pair<size_t, size_t> operandDest(const StageDescriptor &d, size_t p,
                                      size_t q);

/**
 * Store an m x w staging tile of gemm::stagedPanels — output columns
 * [p0, p0 + w) of stage @p d, row stride gemm::kColBlock — where the
 * next stage reads it: element (p, q) of the tile lands at
 * operandDest(d, p, p0 + q) of @p dst, the next stage's operand of
 * dst_cols * batch columns, stored in kColBlock-wide column panels
 * (gemm::panelOffset). The identity store of stage 1 writes V_1
 * row-major instead (cols * batch columns).
 *
 * The tile is walked in runs that stay inside one j_{h-1} segment of
 * one sample. Within a run, the rows {i_h * r_out + t} for a fixed t
 * become m_out * len consecutive operand columns: for m_out = 4 that
 * is one 4-way interleave per destination panel (simd::interleave4,
 * vectorized per @p isa), otherwise a scalar store per element. Pure
 * data movement, so the operand is the same bits on every ISA.
 */
template <typename T>
void
storeStageTile(simd::Isa isa, const StageDescriptor &d, const T *tile,
               size_t p0, size_t w, size_t batch, T *dst)
{
    constexpr size_t ldt = gemm::kColBlock, panel = gemm::kColBlock;
    if (d.store_identity) {
        const size_t ld = size_t(d.cols) * batch;
        for (size_t p = 0; p < d.rows; ++p)
            std::memcpy(dst + p * ld + p0, tile + p * ldt, w * sizeof(T));
        return;
    }
    const size_t r = d.r_out, m = d.m_out;
    const size_t n = size_t(d.dst_cols) * batch;
    const size_t rows = size_t(d.cols / d.seg) * r; // n_{h-1} * r_out
    for (size_t q = 0; q < w;) {
        const size_t col = p0 + q;
        const size_t b = col / d.cols;
        const size_t qq = col - b * d.cols;
        const size_t j = qq / d.seg;
        const size_t c = qq - j * d.seg;
        const size_t len = std::min(w - q, d.seg - c);
        const size_t dcol = b * d.dst_cols + c * m;
        for (size_t t = 0; t < r; ++t) {
            const T *src = tile + t * ldt + q;
            const size_t drow = j * r + t;
            if (m == 4) {
                // The run's 4 * len columns may span panels.
                for (size_t cc = 0; cc < len;) {
                    const size_t dc = dcol + 4 * cc;
                    const size_t l = std::min(
                        len - cc,
                        (gemm::panelLd(n, panel, dc) - dc % panel) / 4);
                    simd::interleave4(
                        isa, src + cc, r * ldt, l,
                        dst + gemm::panelOffset(rows, n, panel, drow, dc));
                    cc += l;
                }
            } else {
                for (size_t i = 0; i < m; ++i)
                    for (size_t cc = 0; cc < len; ++cc)
                        dst[gemm::panelOffset(rows, n, panel, drow,
                                              dcol + cc * m + i)] =
                            src[i * r * ldt + cc];
            }
        }
        q += len;
    }
}

} // namespace tie

#endif // TIE_TT_STAGE_PROGRAM_HH
