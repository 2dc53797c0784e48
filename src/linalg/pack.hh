/**
 * @file
 * Operand packing for the register-blocked GEMM microkernels.
 *
 * The packed A layout interleaves kRowPanel rows so the microkernel
 * (linalg/simd.hh, gemmPackedF32/F64) reads one contiguous,
 * 64-byte-aligned stream while broadcasting kRowPanel weights per k
 * step: element (i, kk) of the m x k row-major source lands at
 *
 *   pa[(i / kRowPanel) * kRowPanel * k + kk * kRowPanel + i % kRowPanel]
 *
 * i.e. panels of kRowPanel rows, column-major within the panel. Rows
 * past m in the last panel are zero-filled so the panel stride is
 * uniform; the microkernel never writes the corresponding C rows.
 *
 * TT inference is the ideal packing client: each stage's weight core is
 * fixed per session, so InferSession packs every core once at warm-up
 * (tt/infer_session.hh) and the per-call cost is zero. The B operand
 * needs no packing: every stage stores its output straight into the
 * next stage's operand layout (gemm::stagedPanels,
 * tt/stage_program.hh), so the microkernel always reads a dense B in
 * place — see docs/performance.md.
 *
 * matmul (linalg/matrix.hh) packs A into a per-call AlignedBuf, so
 * the packed microkernel is the only float GEMM kernel family.
 *
 * Packing only moves bytes; every arithmetic chain still runs in the
 * microkernel in the same ascending-k order with separate multiply and
 * add (unless TIE_FAST — linalg/simd.hh), so packed results are
 * bit-identical to the naive row-major i-k-j loop.
 */

#ifndef TIE_LINALG_PACK_HH
#define TIE_LINALG_PACK_HH

#include <cstddef>
#include <cstring>
#include <utility>

namespace tie {
namespace pack {

/** Rows interleaved per packed-A panel (ISA-invariant). */
inline constexpr size_t kRowPanel = 4;

/** Alignment of every packed buffer (one x86 cache line). */
inline constexpr size_t kAlign = 64;

/** Elements packA writes for an m x k source (rows rounded up). */
inline size_t
packedAElems(size_t m, size_t k)
{
    return ((m + kRowPanel - 1) / kRowPanel) * kRowPanel * k;
}

/** 64-byte-aligned allocation helpers (pack.cc). */
void *alignedAlloc(size_t bytes);
void alignedFree(void *p);

/** Bump the gemm.packed_panels / gemm.pack_bytes counters (pack.cc). */
void addPackStats(size_t panels, size_t bytes);

/**
 * Grow-only 64-byte-aligned buffer: resize() only reallocates when the
 * capacity must grow, so steady-state repacks (Matrix-bound sessions
 * re-pack every run) perform zero allocations. Contents are
 * unspecified after a growing resize.
 */
template <typename T>
class AlignedBuf
{
  public:
    AlignedBuf() = default;
    ~AlignedBuf() { alignedFree(data_); }

    AlignedBuf(const AlignedBuf &) = delete;
    AlignedBuf &operator=(const AlignedBuf &) = delete;

    AlignedBuf(AlignedBuf &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0)),
          cap_(std::exchange(o.cap_, 0))
    {}

    AlignedBuf &
    operator=(AlignedBuf &&o) noexcept
    {
        if (this != &o) {
            alignedFree(data_);
            data_ = std::exchange(o.data_, nullptr);
            size_ = std::exchange(o.size_, 0);
            cap_ = std::exchange(o.cap_, 0);
        }
        return *this;
    }

    void
    resize(size_t n)
    {
        if (n > cap_) {
            alignedFree(data_);
            data_ = static_cast<T *>(alignedAlloc(n * sizeof(T)));
            cap_ = n;
        }
        size_ = n;
    }

    T *data() { return data_; }
    const T *data() const { return data_; }
    size_t size() const { return size_; }

  private:
    T *data_ = nullptr;
    size_t size_ = 0;
    size_t cap_ = 0;
};

/**
 * Pack the m x k row-major @p a into @p pa (packedAElems(m, k)
 * elements, layout above). The zero fill of the last partial panel is
 * part of the contract: the kernels run a partial panel's rows on the
 * scalar chain today, but every panel stays fully defined so a
 * full-panel kernel may multiply the padded lanes and discard the rows
 * (garbage there could be NaN, and NaN * 0 != 0).
 */
template <typename T>
void
packA(size_t m, size_t k, const T *a, T *pa)
{
    const size_t panels = (m + kRowPanel - 1) / kRowPanel;
    for (size_t p = 0; p < panels; ++p) {
        T *dst = pa + p * kRowPanel * k;
        const size_t rows =
            m - p * kRowPanel < kRowPanel ? m - p * kRowPanel
                                          : kRowPanel;
        if (rows < kRowPanel)
            std::memset(dst, 0, kRowPanel * k * sizeof(T));
        for (size_t r = 0; r < rows; ++r) {
            const T *src = a + (p * kRowPanel + r) * k;
            for (size_t kk = 0; kk < k; ++kk)
                dst[kk * kRowPanel + r] = src[kk];
        }
    }
}

} // namespace pack
} // namespace tie

#endif // TIE_LINALG_PACK_HH
