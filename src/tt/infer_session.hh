/**
 * @file
 * Reusable compact-scheme inference sessions — paper Algorithm 1 as a
 * persistent object instead of a per-call pipeline.
 *
 * One class template, InferSessionT<T>, serves every dtype: f64, f32
 * and int16 (the 16-bit MAC datapath) share its constructor checks,
 * arena, stage loop and entry points (run, runInto, runVec, runPtr,
 * runCapture); only the dense call per stage is picked at compile
 * time. A session is built once per TT matrix: the CompactPlan (the
 * controller's stage program, tt/stage_program.hh — a few scalars per
 * stage) is compiled at that point and every float stage core is
 * packed.
 *
 * A run walks the batch in tiles sized like the paper's dual working
 * SRAMs (Sec. 3.2 / 4.4): a tile holds as many samples as keep one
 * stage's working set (workingBufferElems per sample) inside one
 * kWorkingSramBytes SRAM per pool thread, at least one and at most the
 * batch. Each tile runs stages d..1 through two ping-pong halves of
 * one 64-byte-aligned arena sized for that tile, so a stage's working
 * set does not grow with the batch. Tiles run in groups spanning at
 * least one cache line of x and y: a group's input is reshaped into
 * per-tile blocks, and its output flattened from them, in one pass
 * each, so every line of x and y moves once. A tile only changes
 * which columns each dense call covers, so every output keeps its
 * k-order and its bits. After the first run at a given tile size,
 * steady-state calls of every dtype perform **zero heap allocations**:
 * the arena, the group blocks and the caller's output storage are
 * reused. Sessions are view-only, like TIE's weight SRAM, which is
 * loaded once and then only read: a run reads the bound views' bytes
 * and never re-reads a weight pointer or repacks. An owner that
 * changes weights between runs (TtDense in training) calls rebind
 * after changing them.
 *
 * The inter-stage Transform costs no pass of its own, as in TIE's
 * working-SRAM write scheme (Algorithm 2): every stage runs its dense
 * kernel — the packed microkernel for float, fxpStage for int16 — one
 * kColBlock-wide column panel at a time (gemm::stagePanels), and the
 * kernel's epilogue stores each accumulator block from the registers
 * through the stage descriptor (stageOut, gemm::StageOut) straight
 * into the layout the next stage reads: no staging tile, no zero fill
 * and no copy pass. Where a stage's 4 output rows {i_h * r + t} land
 * side by side (m_h = 4), its core is packed in interleave-group order
 * (int16 reads the view at that row stride), so a row panel's vector
 * leaves as one 4-way interleave; other blocks are spilled and stored
 * element by element. That layout keeps each kColBlock-wide column
 * panel of the operand as one contiguous block, so every stage reads
 * a dense panel in place, and no session holds a per-element table.
 * Stage d reads the tile's reshaped input; stage 1 stores V_1 as is,
 * which is then flattened into the tile's output columns. Capture
 * runs take the whole batch as one tile and copy the materialized
 * operands out row-major. One path for every dtype; the kernels keep
 * their per-element k-loop order and the stores only move bits, so
 * results are bit-identical to compactInfer / compactInferFxp for
 * every shape, batch, thread count and dispatch ISA (TIE_SIMD) —
 * tests assert exact equality. The active path is reported by the
 * simd.isa gauge.
 *
 * compactInfer, compactInferVec and compactInferFxp (tt_infer.hh) are
 * thin wrappers over a transient session; long-lived callers
 * (TieEngine, TtDense, the simulator-facing benches) hold one.
 */

#ifndef TIE_TT_INFER_SESSION_HH
#define TIE_TT_INFER_SESSION_HH

#include <concepts>
#include <string>
#include <type_traits>
#include <vector>

#include "linalg/pack.hh"
#include "linalg/simd.hh"
#include "tt/tt_infer.hh"

namespace tie {

/** Session construction knobs. */
struct SessionOptions
{
    /**
     * Float fast-arithmetic policy; the default defers to TIE_FAST
     * and falls back to Off. On permits FMA in the float32 stage
     * GEMMs only (documented error bound, linalg/simd.hh); the f64
     * and fxp paths stay bit-exact under every setting.
     */
    simd::FastMode fast = simd::FastMode::Env;
};

/**
 * Non-owning view of one unfolded stage core: a raw pointer into
 * whatever owns the weights — a Matrix, an mmap'd .tie artifact
 * (io/tie_format.hh), or an FFI caller's buffer. The data must stay
 * alive and 8-byte (f64) / 2-byte (i16) aligned while the view is
 * used; row-major rows x cols.
 */
template <typename T>
struct CoreView
{
    const T *data = nullptr;
    size_t rows = 0;
    size_t cols = 0;
};

/**
 * Non-owning description of one TT layer: the shape/rank config plus a
 * core view per stage (index h-1). This is the common currency between
 * weight owners (TtMatrix, mmap'd artifacts) and weight consumers
 * (InferSession, serve::Server).
 */
template <typename T>
struct TtLayerView
{
    TtLayerConfig cfg;
    std::vector<CoreView<T>> cores; ///< unfolded, index h-1
};

/**
 * Fixed-point layers also carry the per-stage MAC formats (copied by
 * value — they are a few ints per stage).
 */
template <>
struct TtLayerView<int16_t>
{
    TtLayerConfig cfg;
    std::vector<CoreView<int16_t>> cores; ///< unfolded, index h-1
    std::vector<MacFormat> fmt;           ///< arithmetic, index h-1
};

using TtLayerViewD = TtLayerView<double>;
using TtFxpLayerView = TtLayerView<int16_t>;

/** View of a TtMatrix's unfolded cores (tt must outlive the view). */
TtLayerViewD layerView(const TtMatrix &tt);

/** View of a TtMatrixFxp's cores/formats (tt must outlive it). */
TtFxpLayerView layerView(const TtMatrixFxp &tt);

/** View of unfolded float cores (index h-1; cores must outlive it). */
template <typename T>
    requires std::floating_point<T>
TtLayerView<T> layerView(const TtLayerConfig &cfg,
                         const std::vector<Matrix<T>> &cores);

/**
 * Shape check of a layer's core views against @p cfg: d non-null views
 * of coreRows(h) x coreCols(h). Returns the first problem ("stage h
 * ..."), or an empty string when the views fit.
 */
template <typename T>
std::string checkCoreViews(const TtLayerConfig &cfg,
                           const std::vector<CoreView<T>> &cores);

/**
 * Inference session over unfolded stage cores (index h-1, shapes
 * coreRows(h) x coreCols(h)) for T = double, float or int16_t. Float
 * stages run the packed microkernel; int16 stages run the 16-bit MAC
 * datapath (fxpStage) under the view's per-stage MacFormats, whose
 * chain (each stage's act_out feeds the next stage's act_in) rebind
 * validates.
 */
template <typename T>
class InferSessionT
{
  public:
    /**
     * Compile the stage program for layer.cfg and rebind(layer). The
     * view pointers (into a TtMatrix, an mmap'd artifact or a caller's
     * buffer) are consumed by the stage kernels directly; no weight
     * bytes are copied except into the float packed panels. The viewed
     * storage must outlive the session, and its bytes must stay
     * unchanged unless the owner calls rebind after changing them.
     */
    explicit InferSessionT(TtLayerView<T> layer,
                           SessionOptions opts = {});

    /**
     * Bind the session to @p layer: the only place that validates core
     * views (and, for int16, the format chain) and repacks the float
     * cores. layer.cfg must equal config(); the packed buffers only
     * grow, so rebinding same-shaped cores never allocates them. Call
     * after changing the viewed weights or moving them.
     */
    void rebind(TtLayerView<T> layer);

    const TtLayerConfig &config() const { return plan_.config(); }
    const CompactPlan &plan() const { return plan_; }
    const SessionOptions &options() const { return opts_; }

    /** Infer a batch: x is N x B, returns M x B (allocates the result). */
    Matrix<T> run(const Matrix<T> &x, InferStats *stats = nullptr);

    /**
     * Allocation-free variant: y is reshaped only when its dimensions
     * differ from M x B, so steady-state calls reuse its storage.
     */
    void runInto(const Matrix<T> &x, Matrix<T> &y,
                 InferStats *stats = nullptr);

    /**
     * Single-sample variant reading x and writing y in place (y is
     * resized to M); neither vector is copied through a Matrix.
     */
    void runVec(const std::vector<T> &x, std::vector<T> &y,
                InferStats *stats = nullptr);

    /**
     * Raw-pointer variant for callers that own both buffers (the
     * serving layer's pre-allocated slabs): x is row-major N x batch,
     * y row-major M x batch, batch >= 1. Steady-state calls are
     * zero-allocation like runInto, with no Matrix bookkeeping at all.
     */
    void runPtr(const T *x, size_t batch, T *y,
                InferStats *stats = nullptr);

    /**
     * runInto that additionally materializes the operand consumed by
     * each stage h into capture[h-1] (resized as needed) — what
     * TtDense::backward needs to form weight gradients. Capture runs
     * run the dense kernel on the captured operands and produce
     * identical outputs.
     */
    void runCapture(const Matrix<T> &x, Matrix<T> &y,
                    std::vector<Matrix<T>> &capture,
                    InferStats *stats = nullptr);

    /**
     * Current arena footprint in bytes: both ping-pong halves, each
     * workingBufferElems x the largest batch tile run so far, rounded
     * up to whole 64-byte lines. For a batch that spans several tiles
     * this is one tile's working set, not the batch's.
     */
    size_t arenaBytes() const { return arena_.size() * sizeof(T); }

    /**
     * Bytes held outside the arena for operands: every float stage
     * core packed at rebind (none for int16, whose kernels read the
     * views), and the tile group's reshaped input and V_1 blocks,
     * which only runs of more than one sample allocate. Separate from
     * arenaBytes(), which models the paper's dual working SRAMs.
     */
    size_t
    packedBytes() const
    {
        size_t b = (in_.size() + out_.size()) * sizeof(T);
        for (const pack::AlignedBuf<T> &p : packed_)
            b += p.size() * sizeof(T);
        return b;
    }

  private:
    static constexpr bool kFxp = std::is_same_v<T, int16_t>;

    void ensureTile(size_t tile);
    void runRaw(const T *x, size_t batch, T *ydirect, T *yflat,
                std::vector<Matrix<T>> *capture, InferStats *stats);

    CompactPlan plan_;
    std::vector<CoreView<T>> cores_; ///< unfolded views, index h-1
    /** int16 stage arithmetic, index h-1 (empty for float). */
    std::vector<MacFormat> fmt_;
    SessionOptions opts_;
    bool fast_ = false; ///< opts_.fast resolved (f32 FMA permitted)

    /**
     * Per-stage float weight cores packed into microkernel panels
     * (linalg/pack.hh), in interleave groups where the stage stores
     * through one, index h-1 — filled by rebind only. The buffers are
     * grow-only, so a rebind of same-shaped cores never allocates
     * them. Empty for int16: fxpStage reads the unpacked cores.
     */
    std::vector<pack::AlignedBuf<T>> packed_;

    size_t tile_ = 0;           ///< samples per batch tile (0: none yet)
    size_t half_ = 0;           ///< elements per ping-pong half
    pack::AlignedBuf<T> arena_; ///< >= 2 * half_ elements (grow-only)
    /** A tile group's reshaped input (N rows per sample) and V_1
        (M rows per sample), one block per tile (grow-only). */
    pack::AlignedBuf<T> in_, out_;
};

using InferSessionD = InferSessionT<double>;
using InferSessionF = InferSessionT<float>;
using InferSessionFxp = InferSessionT<int16_t>;

/**
 * Session over a TtMatrix's unfolded cores: tt must outlive it, and its
 * cores must stay unchanged unless the caller rebinds (session.rebind(
 * layerView(tt))) after changing them.
 */
InferSessionD makeSession(const TtMatrix &tt, SessionOptions opts = {});

} // namespace tie

#endif // TIE_TT_INFER_SESSION_HH
