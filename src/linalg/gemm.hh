/**
 * @file
 * Blocked, multithreaded GEMM/GEMV drivers on raw row-major buffers.
 * matmul (linalg) packs A and runs gemmPackedBlocked, matVec runs
 * gemvBlocked, the session stages run gemmPackedStaged / stagedPanels
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
 * stage goes through one driver for every dtype (stagedPanels): run
 * the dense kernel on a column panel into a staging tile, then store
 * the tile straight into the next stage's operand layout.
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
/** k-panel width; one panel of B rows stays hot across an i-block. */
inline constexpr size_t kDepthBlock = 128;
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

/** kColBlock-wide column panels covering @p n columns. */
inline size_t
panelCount(size_t n)
{
    return (n + kColBlock - 1) / kColBlock;
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
 * Tile slots stagedPanels uses for an m x n x k product: one below
 * kParallelMinWork (without touching the pool), else
 * min(threadCount(), panelCount(n)). Callers size their staging tiles
 * to slots * m * kColBlock elements before the steady state.
 */
inline size_t
panelSlots(size_t m, size_t n, size_t k)
{
    if (m * n * k < kParallelMinWork)
        return 1;
    return std::min(threadCount(), panelCount(n));
}

/**
 * The inter-stage panel driver shared by every dtype: for each
 * kColBlock-wide column panel [p0, p0 + w) of the m x n product
 * A * B, with B (k x n) in the panel layout @p bpanel (n for
 * row-major, or kColBlock), @p dense(bp, ldb, tile, w) runs the
 * dtype's dense kernel over all m rows, reading the panel's B columns
 * in place (bp, row stride ldb), into the slot's m x kColBlock staging
 * tile (row stride kColBlock). Then @p store(tile, p0, w) writes the
 * tile wherever the consumer reads it — for a TT stage, the next
 * stage's operand (tt/stage_program.hh), so no stage ever gathers its
 * operand.
 *
 * Panels run in parallel and are never split: S = min(@p slots,
 * panelSlots(m, n, k)) slots each own one tile and claim the next
 * unclaimed panel until none is left, so a slowed thread does not
 * hold back a fixed share. @p tiles holds @p slots >= 1 tiles. Each
 * output column is produced by exactly one dense call and stored once,
 * whichever slot runs it, so results are bit-identical to running the
 * dense kernel over the whole product, for every thread count.
 */
template <typename T, typename Dense, typename Store>
void
stagedPanels(size_t m, size_t n, size_t k, const T *b, size_t bpanel,
             T *tiles, size_t slots, Dense &&dense, Store &&store)
{
    if (m == 0 || n == 0 || k == 0)
        return;
    const size_t panels = panelCount(n);
    const size_t used = std::min(slots, panelSlots(m, n, k));
    std::atomic<size_t> next{0};
    auto run = [&](size_t s0, size_t s1) {
        for (size_t s = s0; s < s1; ++s) {
            T *tile = tiles + s * m * kColBlock;
            for (;;) {
                const size_t p =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (p >= panels)
                    break;
                const size_t p0 = p * kColBlock;
                const size_t w = std::min(kColBlock, n - p0);
                dense(b + panelOffset(k, n, bpanel, 0, p0),
                      panelLd(n, bpanel, p0), tile, w);
                store(static_cast<const T *>(tile), p0, w);
            }
        }
    };
    if (used <= 1)
        run(0, 1);
    else
        parallelFor(0, used, 1, run);
}

/**
 * packedA * B (pa packed by pack::packA, B k x n in the panel layout
 * @p bpanel) through stagedPanels: each panel's tile is zeroed,
 * accumulated by the packed microkernel reading B in place, then
 * handed to @p store. @p tiles holds @p slots m x kColBlock tiles.
 * Bit-identical to gemmPackedBlocked into a zeroed C.
 */
template <typename T, typename Store>
void
gemmPackedStaged(size_t m, size_t n, size_t k, const T *pa, const T *b,
                 size_t bpanel, T *tiles, size_t slots, bool fast,
                 Store &&store)
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
    obs::HostSpan span("gemm.packed_staged");
    stagedPanels(m, n, k, b, bpanel, tiles, slots,
                 [&](const T *bp, size_t ldb, T *tile, size_t w) {
                     obs::HostSpan t("gemm.tile");
                     for (size_t i = 0; i < m; ++i)
                         std::fill_n(tile + i * kColBlock, w, T(0));
                     gemmPackedTile(k, pa, bp, ldb, tile, kColBlock, fast,
                                    0, m, 0, w);
                 },
                 store);
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
