#include "io/crc32.hh"

#include <array>

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

} // namespace

uint32_t
crc32(const void *data, size_t len, uint32_t crc)
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

} // namespace io
} // namespace tie
