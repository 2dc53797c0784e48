/**
 * @file
 * Blocked, multithreaded GEMM/GEMV drivers on raw row-major buffers.
 * matmul (linalg) packs A and runs gemmPackedBlocked, matVec runs
 * gemvBlocked, the session stages run gemmPackedStage / stagePanels
 * and fxpMatmul (quant) splits on the same block constants, so every
 * GEMM-shaped stage in the library shares one execution layer.
 *
 * Determinism: work is partitioned over *output* rows or columns, so
 * each output element is produced by exactly one chunk and its k-loop
 * runs in the same ascending order as the serial kernel. Results are
 * bit-identical for every thread count (see docs/performance.md).
 *
 * The TT compact-scheme stages are short and wide (tens of rows, tens
 * of thousands of batched columns), so the kernels split whichever
 * output axis is larger rather than always splitting rows. Every
 * stage goes through one driver for every dtype (stagePanels): the
 * dense kernel runs on one column panel and its epilogue (StageOut)
 * stores each accumulator block from the registers straight into the
 * next stage's operand layout, as TIE's working-SRAM write scheme does.
 *
 * Float and double tiles dispatch to the one packed kernel family of
 * the SIMD layer (linalg/simd.hh): lanes run across output columns
 * only, so the SIMD paths are bit-identical to the scalar reference
 * for every ISA and the determinism guarantee above is ISA-independent.
 */

#ifndef TIE_LINALG_GEMM_HH
#define TIE_LINALG_GEMM_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <type_traits>

#include "common/thread_pool.hh"
#include "linalg/simd.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"

namespace tie {
namespace gemm {

/** Cached references to the kernel-layer stats (see obs/). */
struct KernelStats
{
    obs::Counter &gemm_calls;
    obs::Counter &gemm_madds; ///< multiply-adds issued (m*n*k)
    obs::Counter &gemv_calls;
    obs::Counter &gemv_madds;
    obs::Distribution &gemm_us;
    obs::Gauge &simd_isa; ///< active dispatch path (simd::Isa ordinal)
    obs::Counter &packed_panels; ///< A operand panels packed
    obs::Counter &pack_bytes;    ///< bytes written into packed panels

    static KernelStats &
    get()
    {
        static KernelStats s{
            obs::StatRegistry::instance().counter(
                "gemm.calls", "blocked GEMM invocations"),
            obs::StatRegistry::instance().counter(
                "gemm.madds", "GEMM multiply-adds issued"),
            obs::StatRegistry::instance().counter(
                "gemv.calls", "blocked GEMV invocations"),
            obs::StatRegistry::instance().counter(
                "gemv.madds", "GEMV multiply-adds issued"),
            obs::StatRegistry::instance().distribution(
                "gemm.call_us", "wall-clock microseconds per GEMM"),
            obs::StatRegistry::instance().gauge(
                "simd.isa",
                "active SIMD path (0=scalar 2=avx2 3=neon 4=avx512; "
                "1 is retired)"),
            obs::StatRegistry::instance().counter(
                "gemm.packed_panels",
                "operand panels packed for the microkernel"),
            obs::StatRegistry::instance().counter(
                "gemm.pack_bytes",
                "bytes written into packed operand panels"),
        };
        return s;
    }
};

/** Rows of C per parallel chunk when splitting the row axis. */
inline constexpr size_t kRowBlock = 16;
/** Columns of C per parallel chunk when splitting the column axis. */
inline constexpr size_t kColBlock = 256;
/** Below this many multiply-adds the serial kernel is always used. */
inline constexpr size_t kParallelMinWork = size_t(1) << 15;

/**
 * Inner tile over a packed A operand (linalg/pack.hh), dispatching to
 * the register-blocked microkernel. @p fast only affects float (see
 * simd::FastMode); with fast false the result is bit-identical to the
 * naive ascending-k i-k-j loop on the same operands for every ISA.
 */
template <typename T>
inline void
gemmPackedTile(size_t k, const T *pa, const T *b, size_t ldb, T *c,
               size_t ldc, bool fast, size_t i0, size_t i1, size_t j0,
               size_t j1)
{
    static_assert(std::is_same_v<T, float> ||
                      std::is_same_v<T, double>,
                  "packed kernels exist for float and double only");
    if constexpr (std::is_same_v<T, float>)
        simd::gemmPackedF32(simd::activeIsa(), fast, k, pa, b, ldb, c,
                            ldc, i0, i1, j0, j1);
    else
        simd::gemmPackedF64(simd::activeIsa(), fast, k, pa, b, ldb, c,
                            ldc, i0, i1, j0, j1);
}

/**
 * C = packedA * B (C zero-initialised m x n row-major, B k x n
 * row-major, pa packed by pack::packA), parallelised over blocks of
 * the larger output axis. kRowBlock is a multiple of pack::kRowPanel,
 * so row chunks always start on a panel boundary as the microkernel
 * requires.
 */
template <typename T>
void
gemmPackedBlocked(size_t m, size_t n, size_t k, const T *pa,
                  const T *b, T *c, bool fast)
{
    if (m == 0 || n == 0 || k == 0)
        return;
    if (obs::enabled()) {
        KernelStats &ks = KernelStats::get();
        ks.gemm_calls.add();
        ks.gemm_madds.add(m * n * k);
        ks.simd_isa.set(static_cast<int64_t>(simd::activeIsa()));
    }
    obs::ScopedTimer timer(KernelStats::get().gemm_us);
    obs::HostSpan span("gemm.packed");
    if (m * n * k < kParallelMinWork) {
        gemmPackedTile(k, pa, b, n, c, n, fast, 0, m, 0, n);
        return;
    }
    if (m >= n) {
        parallelFor(0, m, kRowBlock, [&](size_t i0, size_t i1) {
            obs::HostSpan tile("gemm.tile");
            gemmPackedTile(k, pa, b, n, c, n, fast, i0, i1, 0, n);
        });
    } else {
        parallelFor(0, n, kColBlock, [&](size_t j0, size_t j1) {
            obs::HostSpan tile("gemm.tile");
            gemmPackedTile(k, pa, b, n, c, n, fast, 0, m, j0, j1);
        });
    }
}

/**
 * Column-panel layout of a rows x n operand: columns are cut into
 * panels of @p panel columns, and each panel is stored as its own
 * row-major block, the panels one after another. panel >= n is plain
 * row-major. The last panel may be narrower, so the layout holds
 * exactly rows * n elements. panelLd is the row stride of the panel
 * holding column @p col; panelOffset the offset of element
 * (row, col).
 */
inline size_t
panelLd(size_t n, size_t panel, size_t col)
{
    return std::min(panel, n - col / panel * panel);
}

inline size_t
panelOffset(size_t rows, size_t n, size_t panel, size_t row, size_t col)
{
    const size_t p0 = col / panel * panel;
    return p0 * rows + row * panelLd(n, panel, col) + (col - p0);
}

/**
 * Kernel epilogue into row-major C (row stride ldc): with kAdd the
 * kernel adds its products onto C (C += A * B), else it stores A * B.
 * Kernel row i and column j are C's row i and column j.
 */
template <typename T, bool kAdd>
struct RowsOut
{
    static constexpr bool kLoad = kAdd;
    static constexpr bool kScatter = false;

    T *c;
    size_t ldc;

    size_t row(size_t i) const { return i; }
    T *at(size_t i, size_t j) const { return c + i * ldc + j; }
};

/**
 * Kernel epilogue of a TT stage that stores its m x n product straight
 * into the next stage's operand (tt/stage_program.hh builds it from a
 * StageDescriptor). Output (p, q), with p = i * r + t and
 * q = b * cols + j * seg + c, lands at row j * r + t, column
 * b * dst_cols + c * m + i of the rows x n operand, stored in
 * kColBlock column panels (panelOffset): the write-side address
 * generator operandDest. Kernel column j is product column q0 + j.
 *
 * With @c groups set (m = 4), A is packed in interleave-group order
 * (pack::packAGroups): packed row 4t + i is core row i * r + t, so a
 * row panel's 4 accumulator rows share t, and a vector of w columns
 * inside one segment of one sample lands as 4 * w contiguous elements
 * of operand row j * r + t. take() finds those runs; every other block
 * is spilled and stored element by element through at(). A kernel
 * works on its own copy: take() keeps the position of its last run.
 */
template <typename T>
struct StageOut
{
    static constexpr bool kLoad = false;
    static constexpr bool kScatter = true;

    T *dst = nullptr;
    size_t q0 = 0;
    /** Stage 1 stores V_1 row-major with this row stride instead; the
        kernels then run RowsOut at dst + q0. */
    size_t ld = 0;
    bool groups = false;
    size_t r = 0, m = 0, seg = 0, cols = 0, dst_cols = 0;
    size_t rows = 0, n = 0; ///< operand shape

    /** Core row of packed row @p i. */
    size_t
    row(size_t i) const
    {
        return groups ? i % 4 * r + i / 4 : i;
    }

    /** Where output (row(i), q0 + j) lands. */
    T *
    at(size_t i, size_t j) const
    {
        const size_t p = row(i), q = q0 + j;
        const size_t b = q / cols, qq = q - b * cols;
        const size_t js = qq / seg, c = qq - js * seg;
        return dst + panelOffset(rows, n, kColBlock, js * r + p % r,
                                 b * dst_cols + c * m + p / r);
    }

    /**
     * Where the 4 x w block of row panel i (a multiple of 4) at kernel
     * column j goes as 4 * w contiguous elements, or null when it
     * straddles a segment, sample or destination-panel edge or the rows
     * are not grouped. Blocks that continue the last run only bump a
     * pointer; the divisions run when a run ends or the kernel jumps.
     */
    T *
    take(size_t i, size_t j, size_t w)
    {
        if (i != ti_ || j != next_ || w > room_) {
            if (!groups)
                return nullptr;
            seek(i, j);
            if (w > room_) {
                next_ = ~size_t(0);
                return nullptr;
            }
        }
        T *d = d_;
        d_ += 4 * w;
        room_ -= w;
        next_ = j + w;
        return d;
    }

  private:
    /** Points d_ at (i, j), with room_ columns left before a segment,
        sample or destination-panel edge. */
    void
    seek(size_t i, size_t j)
    {
        const size_t q = q0 + j;
        const size_t b = q / cols, qq = q - b * cols;
        const size_t js = qq / seg, c = qq - js * seg;
        const size_t dc = b * dst_cols + 4 * c;
        const size_t p0 = dc / kColBlock * kColBlock;
        d_ = dst + p0 * rows +
             (js * r + i / 4) * std::min(kColBlock, n - p0) + (dc - p0);
        room_ = std::min(seg - c, (p0 + kColBlock - dc) / 4);
        ti_ = i;
        next_ = j;
    }

    size_t ti_ = ~size_t(0), next_ = 0, room_ = 0;
    T *d_ = nullptr;
};

/**
 * The stage driver shared by every dtype: @p dense(bp, ldb, p0, w)
 * runs the dtype's stage kernel on the kColBlock-wide column panel
 * [p0, p0 + w) of an m x n x k product whose B (k x n) is in the panel
 * layout @p bpanel (n for row-major, or kColBlock), reading the
 * panel's B columns in place (bp, row stride ldb). The kernel stores
 * its products where the consumer reads them (StageOut), so no stage
 * gathers its operand and no product passes through a buffer.
 *
 * Panels run in parallel and are never split: below kParallelMinWork
 * one slot runs them all without touching the pool, else
 * min(threadCount(), panels) slots each claim the next
 * unclaimed panel until none is left, so a slowed thread does not hold
 * back a fixed share. Each panel writes its own output elements once,
 * whichever slot runs it, so results are bit-identical for every
 * thread count.
 */
template <typename T, typename Dense>
void
stagePanels(size_t m, size_t n, size_t k, const T *b, size_t bpanel,
            Dense &&dense)
{
    if (m == 0 || n == 0 || k == 0)
        return;
    const size_t panels = (n + kColBlock - 1) / kColBlock;
    std::atomic<size_t> next{0};
    auto run = [&](size_t, size_t) {
        for (;;) {
            const size_t p = next.fetch_add(1, std::memory_order_relaxed);
            if (p >= panels)
                break;
            const size_t p0 = p * kColBlock;
            dense(b + panelOffset(k, n, bpanel, 0, p0),
                  panelLd(n, bpanel, p0), p0,
                  std::min(kColBlock, n - p0));
        }
    };
    if (m * n * k < kParallelMinWork || threadCount() == 1 || panels == 1)
        run(0, 1);
    else
        parallelFor(0, std::min(threadCount(), panels), 1, run);
}

/**
 * A float TT stage: packedA * B (pa packed by pack::packA, or by
 * pack::packAGroups when @p out groups its rows; B k x n in the panel
 * layout @p bpanel) through stagePanels, each panel's packed kernel
 * storing from its registers through @p out. Bit-identical to
 * gemmPackedBlocked into a zeroed C followed by the store.
 */
template <typename T>
void
gemmPackedStage(size_t m, size_t n, size_t k, const T *pa, const T *b,
                size_t bpanel, bool fast, const StageOut<T> &out)
{
    if (m == 0 || n == 0 || k == 0)
        return;
    const simd::Isa isa = simd::activeIsa();
    if (obs::enabled()) {
        KernelStats &ks = KernelStats::get();
        ks.gemm_calls.add();
        ks.gemm_madds.add(m * n * k);
        ks.simd_isa.set(static_cast<int64_t>(isa));
    }
    obs::ScopedTimer timer(KernelStats::get().gemm_us);
    obs::HostSpan span("gemm.packed_stage");
    stagePanels(m, n, k, b, bpanel,
                [&](const T *bp, size_t ldb, size_t p0, size_t w) {
                    obs::HostSpan t("gemm.tile");
                    StageOut<T> o = out;
                    o.q0 += p0;
                    simd::stagePacked(isa, fast, k, pa, bp, ldb, o, 0, m,
                                      0, w);
                });
}

/** y = A * x with A (m x n) row-major, parallelised over rows. */
template <typename T>
void
gemvBlocked(size_t m, size_t n, const T *a, const T *x, T *y)
{
    if (obs::enabled()) {
        KernelStats &ks = KernelStats::get();
        ks.gemv_calls.add();
        ks.gemv_madds.add(m * n);
    }
    auto rows = [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i) {
            const T *row = a + i * n;
            T acc = T(0);
            for (size_t j = 0; j < n; ++j)
                acc += row[j] * x[j];
            y[i] = acc;
        }
    };
    if (m * n < kParallelMinWork) {
        rows(0, m);
        return;
    }
    parallelFor(0, m, kRowBlock, rows);
}

} // namespace gemm
} // namespace tie

#endif // TIE_LINALG_GEMM_HH
