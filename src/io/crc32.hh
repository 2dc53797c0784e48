/**
 * @file
 * CRC-32 (IEEE 802.3: polynomial 0xEDB88320, reflected, init/final
 * xor 0xFFFFFFFF) — the per-section integrity check of the .tie model
 * artifact (tie_format.hh) and of every cluster wire frame
 * (cluster/wire.hh).
 *
 * Three paths compute it, all bit for bit equal to the classic
 * byte-at-a-time CRC-32 and to zlib's crc32():
 *
 *   - Clmul512: on x86-64 hosts with AVX-512F and VPCLMULQDQ, inputs
 *     of 256 bytes or more fold their 16-byte-multiple bulk four zmm
 *     registers (256 bytes) per step with 512-bit carry-less
 *     multiplies; shorter inputs take the next path down.
 *   - Clmul128: on x86-64 hosts with PCLMULQDQ, inputs of 64 bytes or
 *     more fold four xmm registers (64 bytes) per step.
 *   - Portable: slicing-by-8 tables on every host, and for the tail of
 *     fewer than 16 bytes the folds leave.
 *
 * crc32 takes the best path the host supports, picked once from
 * cpuid (not from TIE_SIMD: with no rounding to pin, the paths cannot
 * differ). crc32With runs a named path so tests and benches reach
 * every path the host can execute; tests/test_tie_format.cc pins each
 * against known answers and a bit-serial reference.
 */

#ifndef TIE_IO_CRC32_HH
#define TIE_IO_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace tie {
namespace io {

/**
 * Checksum @p len bytes at @p data. @p crc chains calls: pass the
 * previous return value to continue a running checksum over
 * discontiguous pieces; start (and one-shot callers stay) at 0.
 */
uint32_t crc32(const void *data, size_t len, uint32_t crc = 0);

/** crc32 through the table loop on every host (tests, benches). */
uint32_t crc32Portable(const void *data, size_t len, uint32_t crc = 0);

/** The CRC-32 implementations, slowest first (see the file comment). */
enum class Crc32Path
{
    Portable,
    Clmul128,
    Clmul512,
};

/** "portable", "clmul128" or "clmul512". */
const char *toString(Crc32Path p);

/** True when this host can run @p p (Portable always can). */
bool crc32Supported(Crc32Path p);

/**
 * crc32 through @p p, which must be supported: its fold takes inputs
 * long enough for it and the next path down takes the rest.
 */
uint32_t crc32With(Crc32Path p, const void *data, size_t len,
                   uint32_t crc = 0);

} // namespace io
} // namespace tie

#endif // TIE_IO_CRC32_HH
