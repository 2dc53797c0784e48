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
 * x^n mod P, bit-reflected and shifted left one bit: the form in
 * which the folds below multiply by it. Folding a 128-bit lane d bits
 * down the stream multiplies its two halves by x^(d+32) and x^(d-32)
 * (foldPair); the final reduction takes x^64.
 */
consteval uint64_t
foldConstant(unsigned n)
{
    uint32_t r = 0x80000000u; // x^0, reflected
    for (; n > 0; --n)
        r = (r & 1u) ? (r >> 1) ^ 0xEDB88320u : r >> 1;
    return uint64_t{r} << 1;
}

// The published k1..k5 of the 128-bit fold (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009).
static_assert(foldConstant(544) == 0x154442bd4 &&
              foldConstant(480) == 0x1c6e41596);
static_assert(foldConstant(160) == 0x1751997d0 &&
              foldConstant(96) == 0x0ccaa009e &&
              foldConstant(64) == 0x163cd6124);

/** The constants that move a 128-bit lane @p Bytes down the stream. */
template <unsigned Bytes>
__attribute__((target("pclmul"), always_inline)) inline __m128i
foldPair()
{
    constexpr uint64_t lo = foldConstant(8 * Bytes + 32);
    constexpr uint64_t hi = foldConstant(8 * Bytes - 32);
    return _mm_set_epi64x(static_cast<long long>(hi),
                          static_cast<long long>(lo));
}

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

__attribute__((target("pclmul"), always_inline)) inline __m128i
load128(const uint8_t *q)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(q));
}

/**
 * Fold the @p len bytes at @p p, a multiple of 16, into the running
 * lane @p x one 16-byte block at a time, then reduce it to the raw
 * register: 128 -> 64 bits, the low 32 of those through x^64, and a
 * Barrett reduction. mu is x^64 div P, bit-reflected (33 bits,
 * shifted left one) as is P itself (0x1DB710641).
 */
__attribute__((target("pclmul"), always_inline)) inline uint32_t
finishClmul(const uint8_t *p, size_t len, __m128i x)
{
    const __m128i k16 = foldPair<16>();
    constexpr uint64_t x64 = foldConstant(64);
    const __m128i k64 = _mm_set_epi64x(0, static_cast<long long>(x64));
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i lo32 = _mm_setr_epi32(~0, 0, ~0, 0);
    for (; len >= 16; p += 16, len -= 16)
        x = fold(x, k16, load128(p));

    x = _mm_srli_si128(x, 8) ^ _mm_clmulepi64_si128(x, k16, 0x10);
    x = _mm_srli_si128(x, 4) ^ _mm_clmulepi64_si128(x & lo32, k64, 0x00);
    // Barrett: q = floor(x / P) via mu, then x - q * P in bits 32..63.
    __m128i q = _mm_clmulepi64_si128(x & lo32, poly, 0x10);
    q = _mm_clmulepi64_si128(q & lo32, poly, 0x00);
    return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x ^ q, 4)));
}

/**
 * Advance the raw (uninverted) register @p c over @p len bytes, a
 * multiple of 16 and at least 64, by carry-less multiplication: four
 * 128-bit lanes fold 64 bytes per step, then fold into one lane.
 */
__attribute__((target("pclmul"))) uint32_t
foldClmul(const uint8_t *p, size_t len, uint32_t c)
{
    const __m128i k64 = foldPair<64>();
    const __m128i k16 = foldPair<16>();
    __m128i x1 = load128(p) ^ _mm_cvtsi32_si128(static_cast<int>(c));
    __m128i x2 = load128(p + 16), x3 = load128(p + 32);
    __m128i x4 = load128(p + 48);
    for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
        x1 = fold(x1, k64, load128(p));
        x2 = fold(x2, k64, load128(p + 16));
        x3 = fold(x3, k64, load128(p + 32));
        x4 = fold(x4, k64, load128(p + 48));
    }
    x1 = fold(fold(fold(x1, k16, x2), k16, x3), k16, x4);
    return finishClmul(p, len, x1);
}

#define TIE_CLMUL512 target("avx512f,vpclmulqdq,pclmul")

__attribute__((TIE_CLMUL512, always_inline)) inline __m512i
load512(const uint8_t *q)
{
    return _mm512_loadu_si512(q);
}

/** foldPair in each of the four 128-bit lanes. */
template <unsigned Bytes>
__attribute__((TIE_CLMUL512, always_inline)) inline __m512i
foldPair512()
{
    constexpr uint64_t lo = foldConstant(8 * Bytes + 32);
    constexpr uint64_t hi = foldConstant(8 * Bytes - 32);
    return _mm512_set4_epi64(static_cast<long long>(hi),
                             static_cast<long long>(lo),
                             static_cast<long long>(hi),
                             static_cast<long long>(lo));
}

/** fold on each of the four 128-bit lanes of @p x. */
__attribute__((TIE_CLMUL512, always_inline)) inline __m512i
fold512(__m512i x, __m512i k, __m512i y)
{
    return _mm512_clmulepi64_epi128(x, k, 0x00) ^
           _mm512_clmulepi64_epi128(x, k, 0x11) ^ y;
}

/**
 * foldClmul for @p len of at least 256: four zmm registers fold 256
 * bytes per step, then into one register 64 bytes apart, which takes
 * the rest 64 bytes at a time; its four lanes fold into one 16 bytes
 * apart, and finishClmul ends as the 128-bit fold does.
 */
__attribute__((TIE_CLMUL512)) uint32_t
foldClmul512(const uint8_t *p, size_t len, uint32_t c)
{
    const __m512i k256 = foldPair512<256>();
    const __m512i k64 = foldPair512<64>();
    const __m128i k16 = foldPair<16>();

    __m512i x0 = load512(p) ^ _mm512_maskz_set1_epi32(1, static_cast<int>(c));
    __m512i x1 = load512(p + 64), x2 = load512(p + 128);
    __m512i x3 = load512(p + 192);
    for (p += 256, len -= 256; len >= 256; p += 256, len -= 256) {
        x0 = fold512(x0, k256, load512(p));
        x1 = fold512(x1, k256, load512(p + 64));
        x2 = fold512(x2, k256, load512(p + 128));
        x3 = fold512(x3, k256, load512(p + 192));
    }
    x0 = fold512(fold512(fold512(x0, k64, x1), k64, x2), k64, x3);
    for (; len >= 64; p += 64, len -= 64)
        x0 = fold512(x0, k64, load512(p));

    alignas(64) __m128i lane[4];
    _mm512_store_si512(lane, x0);
    __m128i x = lane[0];
    for (int i = 1; i < 4; ++i)
        x = fold(x, k16, lane[i]);
    return finishClmul(p, len, x);
}

#undef TIE_CLMUL512
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

const char *
toString(Crc32Path p)
{
    switch (p) {
      case Crc32Path::Portable:
        return "portable";
      case Crc32Path::Clmul128:
        return "clmul128";
      case Crc32Path::Clmul512:
        return "clmul512";
    }
    return "?";
}

bool
crc32Supported(Crc32Path p)
{
#if defined(__x86_64__)
    static const bool clmul128 = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") != 0;
    }();
    // The avx512f bit is set only when the OS saves zmm state.
    static const bool clmul512 =
        clmul128 && __builtin_cpu_supports("avx512f") != 0 &&
        __builtin_cpu_supports("vpclmulqdq") != 0;
    switch (p) {
      case Crc32Path::Portable:
        return true;
      case Crc32Path::Clmul128:
        return clmul128;
      case Crc32Path::Clmul512:
        return clmul512;
    }
    return false;
#else
    return p == Crc32Path::Portable;
#endif
}

uint32_t
crc32With(Crc32Path path, const void *data, size_t len, uint32_t crc)
{
#if defined(__x86_64__)
    const uint8_t *p = static_cast<const uint8_t *>(data);
    const size_t bulk = len & ~size_t{15};
    if (path == Crc32Path::Clmul512 && len >= 256)
        return crc32Portable(p + bulk, len - bulk,
                             ~foldClmul512(p, bulk, ~crc));
    if (path != Crc32Path::Portable && len >= 64)
        return crc32Portable(p + bulk, len - bulk,
                             ~foldClmul(p, bulk, ~crc));
#else
    (void)path;
#endif
    return crc32Portable(data, len, crc);
}

uint32_t
crc32(const void *data, size_t len, uint32_t crc)
{
    static const Crc32Path best =
        crc32Supported(Crc32Path::Clmul512)   ? Crc32Path::Clmul512
        : crc32Supported(Crc32Path::Clmul128) ? Crc32Path::Clmul128
                                              : Crc32Path::Portable;
    return crc32With(best, data, len, crc);
}

} // namespace io
} // namespace tie
