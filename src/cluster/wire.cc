#include "cluster/wire.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"
#include "io/crc32.hh"

namespace tie {
namespace cluster {

namespace {

// The protocol is defined little-endian; like the .tie loader we
// serialize fields through explicit byte shifts so the code is correct
// on any host endianness.

void
storeU32(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
}

void
storeU64(uint8_t *p, uint64_t v)
{
    storeU32(p, static_cast<uint32_t>(v));
    storeU32(p + 4, static_cast<uint32_t>(v >> 32));
}

// Activation arrays are the bulk of every frame. On a little-endian
// host their wire image is their memory image, so they move with one
// memcpy; per-value shifts are left for big-endian hosts (compilers
// vectorize those loops into byte shuffles instead of plain copies).

void
storeF64s(uint8_t *p, const double *v, size_t n)
{
    if constexpr (std::endian::native == std::endian::little) {
        if (n != 0)
            std::memcpy(p, v, 8 * n);
    } else {
        for (size_t i = 0; i < n; ++i) {
            uint64_t bits;
            std::memcpy(&bits, &v[i], sizeof(bits));
            storeU64(p + 8 * i, bits);
        }
    }
}

uint32_t
getU32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

uint64_t
getU64(const uint8_t *p)
{
    return static_cast<uint64_t>(getU32(p)) |
           static_cast<uint64_t>(getU32(p + 4)) << 32;
}

void
setError(std::string *error, const std::string &msg)
{
    if (error != nullptr)
        *error = msg;
}

/**
 * Size @p out for a frame with @p payload_len payload bytes and return
 * where the payload goes; finishFrame fills the header once the
 * payload is in place.
 */
uint8_t *
beginFrame(std::vector<uint8_t> *out, size_t payload_len)
{
    TIE_CHECK_ARG(payload_len <= kWireMaxPayload,
                  "wire payload of ", payload_len,
                  " bytes exceeds the ", kWireMaxPayload, " cap");
    out->resize(kWireHeaderSize + payload_len);
    return out->data() + kWireHeaderSize;
}

void
finishFrame(WireType type, std::vector<uint8_t> *out)
{
    uint8_t *h = out->data();
    const size_t payload_len = out->size() - kWireHeaderSize;
    std::memcpy(h, kWireMagic, 4);
    storeU32(h + 4, kWireVersion);
    storeU32(h + 8, static_cast<uint32_t>(type));
    storeU32(h + 12, 0); // reserved
    storeU64(h + 16, payload_len);
    storeU32(h + 24, payload_len == 0
                         ? 0
                         : io::crc32(h + kWireHeaderSize, payload_len));
    storeU32(h + 28, io::crc32(h, 28));
}

/** beginFrame for an Infer* message carrying the @p n values at @p v. */
uint8_t *
beginInferFrame(std::vector<uint8_t> *out, const double *v, size_t n)
{
    TIE_CHECK_ARG(v != nullptr || n == 0, "null wire values with count ",
                  n);
    TIE_CHECK_ARG(n <= (kWireMaxPayload - 16) / 8, n,
                  " wire values exceed the ", kWireMaxPayload,
                  " byte payload cap");
    return beginFrame(out, inferPayloadSize(n));
}

/** Frame of type @p t whose payload is exactly @p size bytes? */
bool
frameIs(const WireFrame &f, WireType t, size_t size)
{
    return f.type == t && f.payload_size == size;
}

/** Payload of an Infer* frame: 16 fixed bytes + a whole f64 count. */
bool
inferFrameIs(const WireFrame &f, WireType t)
{
    return f.type == t && f.payload_size >= 16 &&
           (f.payload_size - 16) % 8 == 0;
}

} // namespace

bool
wireTypeKnown(uint32_t t)
{
    return t >= static_cast<uint32_t>(WireType::Hello) &&
           t <= static_cast<uint32_t>(WireType::DrainAck);
}

void
encodeFrame(WireType type, const void *payload, size_t payload_len,
            std::vector<uint8_t> *out)
{
    TIE_CHECK_ARG(payload != nullptr || payload_len == 0,
                  "null wire payload with nonzero length");
    uint8_t *p = beginFrame(out, payload_len);
    if (payload_len != 0)
        std::memcpy(p, payload, payload_len);
    finishFrame(type, out);
}

DecodeStatus
decodeFrameHeader(const uint8_t *data, size_t len, uint64_t max_payload,
                  WireHeader *out, std::string *error)
{
    if (len == 0)
        return DecodeStatus::NeedMore;
    // Reject bad leading bytes as early as possible: a corrupt prefix
    // must never be reported as NeedMore, or a peer would wait
    // forever on a stream that can never become valid.
    const size_t magic_check = len < 4 ? len : size_t(4);
    if (std::memcmp(data, kWireMagic, magic_check) != 0) {
        setError(error, "wire frame: bad magic");
        return DecodeStatus::Corrupt;
    }
    if (len < kWireHeaderSize)
        return DecodeStatus::NeedMore;

    // Header CRC first: every later field read depends on it.
    const uint32_t header_crc = getU32(data + 28);
    if (io::crc32(data, 28) != header_crc) {
        setError(error, "wire frame: header CRC mismatch");
        return DecodeStatus::Corrupt;
    }
    const uint32_t version = getU32(data + 4);
    if (version != kWireVersion) {
        setError(error, strCat("wire frame: protocol version ",
                               version, ", expected ", kWireVersion));
        return DecodeStatus::Corrupt;
    }
    const uint32_t type = getU32(data + 8);
    if (!wireTypeKnown(type)) {
        setError(error,
                 strCat("wire frame: unknown message type ", type));
        return DecodeStatus::Corrupt;
    }
    if (getU32(data + 12) != 0) {
        setError(error, "wire frame: reserved field is nonzero");
        return DecodeStatus::Corrupt;
    }
    const uint64_t payload_size = getU64(data + 16);
    if (payload_size > max_payload) {
        setError(error, strCat("wire frame: payload of ", payload_size,
                               " bytes exceeds the ", max_payload,
                               " cap"));
        return DecodeStatus::Corrupt;
    }
    out->type = static_cast<WireType>(type);
    out->payload_size = payload_size;
    out->payload_crc = getU32(data + 24);
    return DecodeStatus::Ok;
}

DecodeStatus
verifyPayload(const WireHeader &h, const uint8_t *payload,
              std::string *error)
{
    const size_t size = static_cast<size_t>(h.payload_size);
    const uint32_t actual = size == 0 ? 0 : io::crc32(payload, size);
    if (actual != h.payload_crc) {
        setError(error, "wire frame: payload CRC mismatch");
        return DecodeStatus::Corrupt;
    }
    return DecodeStatus::Ok;
}

DecodeStatus
tryDecodeFrame(const uint8_t *data, size_t len, WireFrame *out,
               size_t *consumed, std::string *error)
{
    WireHeader h;
    DecodeStatus st =
        decodeFrameHeader(data, len, kWireMaxPayload, &h, error);
    if (st != DecodeStatus::Ok)
        return st;
    if (len - kWireHeaderSize < h.payload_size)
        return DecodeStatus::NeedMore;
    const uint8_t *payload = data + kWireHeaderSize;
    st = verifyPayload(h, payload, error);
    if (st != DecodeStatus::Ok)
        return st;

    out->type = h.type;
    out->payload = payload;
    out->payload_size = static_cast<size_t>(h.payload_size);
    *consumed = kWireHeaderSize + out->payload_size;
    return DecodeStatus::Ok;
}

// ---------------------------------------------------------------------
// Typed messages
// ---------------------------------------------------------------------

void
encodeHelloAck(const HelloAckMsg &m, std::vector<uint8_t> *frame)
{
    uint8_t *p = beginFrame(frame, kHelloAckPayload);
    storeU64(p, m.in_size);
    storeU64(p + 8, m.out_size);
    storeU64(p + 16, m.layers);
    storeU32(p + 24, m.pid);
    finishFrame(WireType::HelloAck, frame);
}

bool
decodeHelloAck(const WireFrame &f, HelloAckMsg *out)
{
    if (!frameIs(f, WireType::HelloAck, kHelloAckPayload))
        return false;
    const uint8_t *p = f.payload;
    out->in_size = getU64(p);
    out->out_size = getU64(p + 8);
    out->layers = getU64(p + 16);
    out->pid = getU32(p + 24);
    return out->in_size > 0 && out->out_size > 0 && out->layers > 0;
}

void
encodeInferRequest(uint64_t req_id, uint64_t deadline_us,
                   const double *x, size_t n, std::vector<uint8_t> *frame)
{
    uint8_t *p = beginInferFrame(frame, x, n);
    storeU64(p, req_id);
    storeU64(p + 8, deadline_us);
    storeF64s(p + 16, x, n);
    finishFrame(WireType::InferRequest, frame);
}

bool
decodeInferRequest(const WireFrame &f, InferRequestMsg *out)
{
    if (!inferFrameIs(f, WireType::InferRequest))
        return false;
    const uint8_t *p = f.payload;
    out->req_id = getU64(p);
    out->deadline_us = getU64(p + 8);
    out->n = (f.payload_size - 16) / 8;
    out->values = p + 16;
    return out->n > 0;
}

void
encodeInferResponse(uint64_t req_id, uint32_t status, const double *y,
                    size_t n, std::vector<uint8_t> *frame)
{
    uint8_t *p = beginInferFrame(frame, y, n);
    storeU64(p, req_id);
    storeU32(p + 8, status);
    storeU32(p + 12, 0); // reserved
    storeF64s(p + 16, y, n);
    finishFrame(WireType::InferResponse, frame);
}

bool
decodeInferResponse(const WireFrame &f, InferResponseMsg *out)
{
    if (!inferFrameIs(f, WireType::InferResponse))
        return false;
    const uint8_t *p = f.payload;
    out->req_id = getU64(p);
    out->status = getU32(p + 8);
    if (getU32(p + 12) != 0)
        return false;
    out->n = (f.payload_size - 16) / 8;
    out->values = p + 16;
    return true;
}

void
encodeHealthReport(const HealthReportMsg &m, std::vector<uint8_t> *frame)
{
    uint8_t *p = beginFrame(frame, kHealthReportPayload);
    storeU64(p, m.queue_depth);
    storeU64(p + 8, m.in_flight);
    storeU64(p + 16, m.done);
    storeU64(p + 24, m.shed);
    storeU32(p + 32, m.draining);
    storeU32(p + 36, 0); // reserved
    finishFrame(WireType::HealthReport, frame);
}

bool
decodeHealthReport(const WireFrame &f, HealthReportMsg *out)
{
    if (!frameIs(f, WireType::HealthReport, kHealthReportPayload))
        return false;
    const uint8_t *p = f.payload;
    out->queue_depth = getU64(p);
    out->in_flight = getU64(p + 8);
    out->done = getU64(p + 16);
    out->shed = getU64(p + 24);
    out->draining = getU32(p + 32);
    return getU32(p + 36) == 0;
}

void
loadWireF64s(const void *src, size_t n, double *dst)
{
    const uint8_t *p = static_cast<const uint8_t *>(src);
    if constexpr (std::endian::native == std::endian::little) {
        if (n != 0)
            std::memcpy(dst, p, 8 * n);
    } else {
        for (size_t i = 0; i < n; ++i) {
            const uint64_t bits = getU64(p + 8 * i);
            std::memcpy(&dst[i], &bits, sizeof(bits));
        }
    }
}

} // namespace cluster
} // namespace tie
