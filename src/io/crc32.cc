#include "io/crc32.hh"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace tie {
namespace io {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables: t[0] is the classic byte-at-a-time table, and
 * t[k][b] is the CRC of byte b followed by k zero bytes, so eight
 * lookups advance the register over eight input bytes at once.
 */
Tables
makeTables()
{
    Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i)
        for (size_t k = 1; k < 8; ++k)
            t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    return t;
}

#if defined(__x86_64__)
/**
 * Move @p x by k's distance down the stream, onto @p y. Here ^ and &
 * on __m128i are GCC's lane-wise vector operators.
 */
__attribute__((target("pclmul"), always_inline)) inline __m128i
fold(__m128i x, __m128i k, __m128i y)
{
    return _mm_clmulepi64_si128(x, k, 0x00) ^
           _mm_clmulepi64_si128(x, k, 0x11) ^ y;
}

/**
 * Advance the raw (uninverted) register @p c over @p len bytes, a
 * multiple of 16 and at least 64, by carry-less multiplication
 * (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
 * PCLMULQDQ", Intel 2009): four 128-bit lanes fold 64 bytes per step
 * (k1, k2), fold into one lane (k3, k4), fold 128 -> 64 bits (k4, k5),
 * and a Barrett reduction leaves 32. k1..k5 are x^544, x^480, x^160,
 * x^96 and x^64 mod P, and mu is x^64 div P, all bit-reflected
 * (33 bits, shifted left one) as is P itself (0x1DB710641).
 */
__attribute__((target("pclmul"))) uint32_t
foldClmul(const uint8_t *p, size_t len, uint32_t c)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i lo32 = _mm_setr_epi32(~0, 0, ~0, 0);
    const auto load = [](const uint8_t *q) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(q));
    };

    __m128i x1 = load(p) ^ _mm_cvtsi32_si128(static_cast<int>(c));
    __m128i x2 = load(p + 16), x3 = load(p + 32), x4 = load(p + 48);
    for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
        x1 = fold(x1, k1k2, load(p));
        x2 = fold(x2, k1k2, load(p + 16));
        x3 = fold(x3, k1k2, load(p + 32));
        x4 = fold(x4, k1k2, load(p + 48));
    }
    x1 = fold(fold(fold(x1, k3k4, x2), k3k4, x3), k3k4, x4);
    for (; len >= 16; p += 16, len -= 16)
        x1 = fold(x1, k3k4, load(p));

    // 128 -> 64 bits, then the low 32 of those through k5.
    x1 = _mm_srli_si128(x1, 8) ^ _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_srli_si128(x1, 4) ^ _mm_clmulepi64_si128(x1 & lo32, k5, 0x00);
    // Barrett: q = floor(x / P) via mu, then x - q * P in bits 32..63.
    __m128i q = _mm_clmulepi64_si128(x1 & lo32, poly, 0x10);
    q = _mm_clmulepi64_si128(q & lo32, poly, 0x00);
    return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1 ^ q, 4)));
}
#endif

} // namespace

uint32_t
crc32Portable(const void *data, size_t len, uint32_t crc)
{
    static const Tables t = makeTables();
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint32_t c = crc ^ 0xFFFFFFFFu;
    // The eight bytes are assembled little-endian through shifts, so
    // the result does not depend on host byte order.
    for (; len >= 8; p += 8, len -= 8) {
        const uint32_t lo = c ^ (static_cast<uint32_t>(p[0]) |
                                 static_cast<uint32_t>(p[1]) << 8 |
                                 static_cast<uint32_t>(p[2]) << 16 |
                                 static_cast<uint32_t>(p[3]) << 24);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; len > 0; ++p, --len)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

uint32_t
crc32(const void *data, size_t len, uint32_t crc)
{
#if defined(__x86_64__)
    static const bool clmul = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") != 0;
    }();
    if (clmul && len >= 64) {
        const uint8_t *p = static_cast<const uint8_t *>(data);
        const size_t bulk = len & ~size_t{15};
        crc = ~foldClmul(p, bulk, ~crc);
        return crc32Portable(p + bulk, len - bulk, crc);
    }
#endif
    return crc32Portable(data, len, crc);
}

} // namespace io
} // namespace tie
