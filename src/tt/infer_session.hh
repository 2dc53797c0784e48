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
 * the arena, the staging tiles and the caller's output storage are all
 * reused. int16 sessions are view-only: they read a TtFxpLayerView's
 * fixed bytes and formats; only float sessions bind to mutable Matrix
 * cores.
 *
 * The inter-stage Transform costs no pass of its own, as in TIE's
 * working-SRAM write scheme (Algorithm 2): every stage runs its dense
 * kernel — the packed microkernel for float, fxpBlock for int16 — one
 * kColBlock-wide column panel at a time into a small staging tile
 * (gemm::stagedPanels), then stores the tile through the stage
 * descriptor straight into the layout the next stage reads
 * (storeStageTile: a 4-way interleave per ISA when m_h = 4). That
 * layout keeps each kColBlock-wide column panel of the operand as one
 * contiguous block, so every stage reads a dense panel in place, and
 * no session holds a per-element table. Stage d reads the tile's
 * reshaped input; stage 1 stores V_1 as is, which is then flattened
 * into the tile's output columns. Capture runs take the whole batch as
 * one tile and copy the materialized operands out row-major. One path
 * for every dtype; the kernels keep their per-element k-loop order and
 * the stores only move bits, so results are bit-identical to
 * compactInfer / compactInferFxp for every shape, batch, thread count
 * and dispatch ISA (TIE_SIMD) — tests assert exact equality. The
 * active path is reported by the simd.isa gauge.
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
 * datapath (fxpBlock) under the view's per-stage MacFormats, whose
 * chain (each stage's act_out feeds the next stage's act_in) the
 * constructor validates.
 */
template <typename T>
class InferSessionT
{
  public:
    /**
     * Float only: bind to Matrix objects that must outlive the
     * session; their *values* may change between runs (training
     * updates them in place), so every run re-reads and repacks them.
     */
    InferSessionT(const TtLayerConfig &cfg,
                  std::vector<const Matrix<T> *> cores,
                  SessionOptions opts = {})
        requires std::floating_point<T>;

    /**
     * Construct over non-owning core views — the zero-copy path for
     * mmap-backed artifacts: the view pointers (e.g. into the mapped
     * file) are consumed by the stage kernels directly, no weight bytes
     * are ever copied. The viewed storage must outlive the session and
     * is treated as immutable; this is the only int16 constructor.
     */
    explicit InferSessionT(TtLayerView<T> layer,
                           SessionOptions opts = {});

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
     * core packed at warm-up, the per-slot staging tiles, and the tile
     * group's reshaped input and V_1 blocks. Separate from
     * arenaBytes(), which models the paper's dual working SRAMs.
     */
    size_t
    packedBytes() const
    {
        size_t b = (tiles_.size() + in_.size() + out_.size()) * sizeof(T);
        for (const pack::AlignedBuf<T> &p : packed_)
            b += p.size() * sizeof(T);
        return b;
    }

  private:
    static constexpr bool kFxp = std::is_same_v<T, int16_t>;

    void ensureTile(size_t tile);
    void packCores();
    void runRaw(const T *x, size_t batch, T *ydirect, T *yflat,
                std::vector<Matrix<T>> *capture, InferStats *stats);

    CompactPlan plan_;
    std::vector<CoreView<T>> cores_; ///< unfolded views, index h-1
    /** int16 stage arithmetic, index h-1 (empty for float). */
    std::vector<MacFormat> fmt_;
    /**
     * Non-empty when constructed over Matrix objects: the views in
     * cores_ are refreshed from these pointers at every run, so
     * callers (training layers, optimizers, TieEngine's cache) may
     * replace a core Matrix's value — reallocating its storage —
     * between runs. Empty for view-constructed sessions (mmap'd
     * artifacts), whose weight bytes are immutable by contract.
     */
    std::vector<const Matrix<T> *> bound_;
    SessionOptions opts_;
    bool fast_ = false; ///< opts_.fast resolved (f32 FMA permitted)

    /**
     * Per-stage float weight cores packed into microkernel panels
     * (linalg/pack.hh), index h-1 — filled at construction and, for
     * Matrix-bound sessions, refreshed from the re-bound views every
     * run (the owners may update weights in place between runs). The
     * buffers are grow-only, so steady-state repacks never allocate.
     * Empty for int16: fxpBlock reads the unpacked cores.
     */
    std::vector<pack::AlignedBuf<T>> packed_;
    /** Staging tiles, one m x kColBlock tile per slot
        (gemm::stagedPanels). */
    pack::AlignedBuf<T> tiles_;

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

/** Session over a TtMatrix's unfolded cores (tt must outlive it). */
InferSessionD makeSession(const TtMatrix &tt, SessionOptions opts = {});

} // namespace tie

#endif // TIE_TT_INFER_SESSION_HH
