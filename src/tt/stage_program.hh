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
 * table (tt/tt_transform.hh) for every configuration. stageOut() hands
 * the write side to the host stage kernels (gemm::StageOut), which
 * store their products from the registers where operandDest() says.
 */

#ifndef TIE_TT_STAGE_PROGRAM_HH
#define TIE_TT_STAGE_PROGRAM_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/gemm.hh"
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
 * True when stage @p d stores through a 4-way interleave: its output
 * rows {i_h * r_out + t : i_h < 4} land side by side in the next
 * operand, so its core is packed in interleave groups
 * (pack::packAGroups) and each kernel row panel stores one group.
 */
inline bool
storesGroups(const StageDescriptor &d)
{
    return !d.store_identity && d.m_out == 4;
}

/**
 * The kernel epilogue of stage @p d over @p batch samples: the identity
 * store of stage 1 writes V_1 row-major into @p dst (cols * batch
 * columns); every other stage stores output (p, q) at operandDest(d,
 * p, q) of the next stage's operand @p dst, dst_cols * batch columns
 * in kColBlock-wide column panels (gemm::StageOut).
 */
template <typename T>
gemm::StageOut<T>
stageOut(const StageDescriptor &d, size_t batch, T *dst)
{
    gemm::StageOut<T> o;
    o.dst = dst;
    if (d.store_identity) {
        o.ld = size_t(d.cols) * batch;
        return o;
    }
    o.groups = storesGroups(d);
    o.r = d.r_out;
    o.m = d.m_out;
    o.seg = d.seg;
    o.cols = d.cols;
    o.dst_cols = d.dst_cols;
    o.rows = size_t(d.cols / d.seg) * d.r_out; // n_{h-1} * r_out
    o.n = size_t(d.dst_cols) * batch;
    return o;
}

} // namespace tie

#endif // TIE_TT_STAGE_PROGRAM_HH
