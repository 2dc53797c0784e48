/**
 * @file
 * CRC-32 (IEEE 802.3: polynomial 0xEDB88320, reflected, init/final
 * xor 0xFFFFFFFF) — the per-section integrity check of the .tie model
 * artifact (tie_format.hh) and of every cluster wire frame
 * (cluster/wire.hh). On x86-64 hosts with PCLMULQDQ, crc32 folds the
 * 16-byte-multiple bulk of inputs of 64 bytes or more with carry-less
 * multiplies (about 10x faster); the rest, and every other host, takes
 * crc32Portable's slicing-by-8 tables. The path is picked once, from
 * cpuid, not from TIE_SIMD: with no rounding to pin, both give the
 * values of the classic byte-at-a-time CRC-32 and of zlib's crc32(),
 * bit for bit. tests/test_tie_format.cc pins both with known answers
 * and a bit-serial reference.
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

} // namespace io
} // namespace tie

#endif // TIE_IO_CRC32_HH
