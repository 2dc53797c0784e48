/**
 * @file
 * The cluster wire protocol: length-prefixed, CRC-framed binary
 * messages between the router and tie_worker processes.
 *
 * Framing follows the .tie artifact discipline (io/tie_format.hh):
 * a fixed-width little-endian header with a magic, a version, a
 * payload length, a CRC-32 over the payload and a CRC-32 over the
 * header itself. Integrity is fail-stop, never best-effort — a
 * truncated stream parses as NeedMore (wait for the rest) and any
 * corrupted byte, in the header or the payload, parses as Corrupt and
 * kills the connection. tests/test_cluster.cc runs the same
 * every-truncation / every-bit-flip hostility matrices the artifact
 * loader gets.
 *
 * Frame header (32 bytes, all fields little-endian):
 *
 *   offset  size  field
 *        0     4  magic "TIEW"
 *        4     4  protocol version (kWireVersion)
 *        8     4  message type (WireType)
 *       12     4  reserved, must be zero
 *       16     8  payload size in bytes
 *       24     4  CRC-32 of the payload bytes (0 for empty payloads)
 *       28     4  CRC-32 of header bytes [0, 28)
 *
 * The payload layouts of the typed messages are documented field by
 * field in docs/cluster.md; every decoder validates the exact payload
 * size against the message's own fields before reading a value.
 */

#ifndef TIE_CLUSTER_WIRE_HH
#define TIE_CLUSTER_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tie {
namespace cluster {

/** First 4 bytes of every frame. */
inline constexpr uint8_t kWireMagic[4] = {'T', 'I', 'E', 'W'};

/** Current (and only) protocol version. */
inline constexpr uint32_t kWireVersion = 1;

/** Fixed frame header size. */
inline constexpr size_t kWireHeaderSize = 32;

/**
 * Hard cap on a frame payload. Large enough for any realistic batch
 * of f64 activations, small enough that a corrupted-but-CRC-valid
 * length can never make a peer allocate unbounded memory.
 */
inline constexpr uint64_t kWireMaxPayload = 1ull << 30;

/** Message types of protocol version 1. */
enum class WireType : uint32_t
{
    Hello = 1,         ///< router -> worker: open a data connection
    HelloAck = 2,      ///< worker -> router: model interface summary
    InferRequest = 3,  ///< router -> worker: one inference request
    InferResponse = 4, ///< worker -> router: its terminal outcome
    HealthCheck = 5,   ///< router -> worker: load/liveness probe
    HealthReport = 6,  ///< worker -> router: queue depth + counters
    Drain = 7,         ///< router -> worker: stop accepting, finish
    DrainAck = 8,      ///< worker -> router: drained, about to exit
};

/** True for the type values a v1 peer may legally send. */
bool wireTypeKnown(uint32_t t);

/**
 * One decoded frame: the type plus a view of the payload bytes. The
 * view points into the buffer the frame was decoded from and lives
 * exactly as long as those bytes do — for FrameConn::recvFrame, until
 * the next recvFrame, reset or close on that connection.
 */
struct WireFrame
{
    WireType type = WireType::Hello;
    const uint8_t *payload = nullptr;
    size_t payload_size = 0;
};

/** A frame header that passed every check decodeFrameHeader makes. */
struct WireHeader
{
    WireType type = WireType::Hello;
    uint64_t payload_size = 0;
    uint32_t payload_crc = 0;
};

/** Outcome of tryDecodeFrame over a byte window. */
enum class DecodeStatus
{
    Ok,       ///< one frame decoded; *consumed bytes were eaten
    NeedMore, ///< prefix of a valid frame; read more and retry
    Corrupt,  ///< fail-stop: bad magic/version/CRC/length — kill the
              ///< connection, never resynchronize
};

/**
 * Encode a frame carrying @p payload_len bytes of @p payload into
 * @p out, which is resized to exactly the frame and keeps its
 * capacity between calls.
 */
void encodeFrame(WireType type, const void *payload, size_t payload_len,
                 std::vector<uint8_t> *out);

/**
 * Validate the header at the first @p len bytes of @p data: magic,
 * header CRC, version, type, reserved field, and a payload size of at
 * most @p max_payload. Corrupt as soon as a byte seen so far is wrong
 * (a bad magic prefix fails before the header is complete), NeedMore
 * while the header is incomplete, Ok with @p out filled otherwise.
 */
DecodeStatus decodeFrameHeader(const uint8_t *data, size_t len,
                               uint64_t max_payload, WireHeader *out,
                               std::string *error = nullptr);

/**
 * Check the @p h.payload_size bytes at @p payload against the payload
 * CRC of their validated header @p h: Ok or Corrupt.
 */
DecodeStatus verifyPayload(const WireHeader &h, const uint8_t *payload,
                           std::string *error = nullptr);

/**
 * Decode one frame from the first @p len bytes at @p data. On Ok,
 * fills @p out with a view into @p data and sets @p consumed to the
 * frame's total size. On Corrupt, @p error (when non-null) receives a
 * diagnostic. NeedMore is only returned while the window is shorter
 * than the frame claims *and* every byte seen so far is consistent
 * with a valid frame.
 */
DecodeStatus tryDecodeFrame(const uint8_t *data, size_t len,
                            WireFrame *out, size_t *consumed,
                            std::string *error = nullptr);

// ---------------------------------------------------------------------
// Typed messages. Each encoder writes a whole frame into a
// caller-owned buffer (resized to fit, capacity kept). Every decode
// validates the frame type, the exact payload size and every field
// before returning true; false means the payload is malformed (treat
// like Corrupt). The Infer* decoders copy no values: they point into
// the frame, for loadWireF64s to copy them out once.
// ---------------------------------------------------------------------

/** HelloAck: the serving interface of the worker's model. */
struct HelloAckMsg
{
    uint64_t in_size = 0;
    uint64_t out_size = 0;
    uint64_t layers = 0;
    uint32_t pid = 0; ///< worker process id (diagnostics)
};

/** InferRequest: id + deadline + n f64 activations, left in the frame. */
struct InferRequestMsg
{
    uint64_t req_id = 0;
    uint64_t deadline_us = 0;
    size_t n = 0;
    const uint8_t *values = nullptr;
};

/**
 * InferResponse: the request's terminal outcome. @p status carries a
 * serve::RequestStatus value; the output payload is present exactly
 * when status == Done, left in the frame as for InferRequestMsg.
 */
struct InferResponseMsg
{
    uint64_t req_id = 0;
    uint32_t status = 0;
    size_t n = 0;
    const uint8_t *values = nullptr;
};

/** HealthReport: the worker's live load + lifetime counters. */
struct HealthReportMsg
{
    uint64_t queue_depth = 0;
    uint64_t in_flight = 0;
    uint64_t done = 0;
    uint64_t shed = 0; ///< rejected + timed out
    uint32_t draining = 0;
};

/** Payload bytes of a HelloAck / HealthReport frame. */
inline constexpr size_t kHelloAckPayload = 28;
inline constexpr size_t kHealthReportPayload = 40;

/** Payload bytes of an InferRequest/InferResponse carrying n values. */
constexpr uint64_t
inferPayloadSize(uint64_t n)
{
    return 16 + 8 * n;
}

void encodeHelloAck(const HelloAckMsg &m, std::vector<uint8_t> *frame);
bool decodeHelloAck(const WireFrame &f, HelloAckMsg *out);

/** InferRequest frame carrying the @p n values at @p x. */
void encodeInferRequest(uint64_t req_id, uint64_t deadline_us,
                        const double *x, size_t n,
                        std::vector<uint8_t> *frame);
bool decodeInferRequest(const WireFrame &f, InferRequestMsg *out);

/** InferResponse frame carrying the @p n values at @p y (n may be 0). */
void encodeInferResponse(uint64_t req_id, uint32_t status,
                         const double *y, size_t n,
                         std::vector<uint8_t> *frame);
bool decodeInferResponse(const WireFrame &f, InferResponseMsg *out);

/** Copy the @p n f64 values whose wire bytes are at @p src (any
    alignment) into @p dst; a serve::InputLoader. */
void loadWireF64s(const void *src, size_t n, double *dst);

void encodeHealthReport(const HealthReportMsg &m,
                        std::vector<uint8_t> *frame);
bool decodeHealthReport(const WireFrame &f, HealthReportMsg *out);

} // namespace cluster
} // namespace tie

#endif // TIE_CLUSTER_WIRE_HH
