/**
 * @file
 * Cluster-plane tests: wire-protocol hostility (the same
 * every-truncation / every-bit-flip discipline the .tie loader
 * gets), the bounded socket layer, child-process control, and
 * end-to-end worker/router integration — sharding, health, drain,
 * fail-over, the any-replica-same-bits contract, and the request
 * path's steady-state heap allocation budget.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/process.hh"
#include "cluster/router.hh"
#include "cluster/socket.hh"
#include "cluster/wire.hh"
#include "cluster/worker.hh"
#include "io/crc32.hh"
#include "io/tie_format.hh"
#include "obs/stat_registry.hh"
#include "serve/load_gen.hh"
#include "tt/tt_matrix.hh"

#include "server_test_peer.hh"

// ---------------------------------------------------------------------
// Global allocation hook, as in test_serve.cc (counting off by default;
// flipped on only around steady-state regions).
// ---------------------------------------------------------------------

static std::atomic<bool> g_count_allocs{false};
static std::atomic<uint64_t> g_alloc_count{0};

static void *
countedAlloc(std::size_t sz)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(sz ? sz : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new(std::size_t sz)
{
    return countedAlloc(sz);
}

void *
operator new[](std::size_t sz)
{
    return countedAlloc(sz);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

// Aligned allocations: session arenas, staging tiles and packed cores
// (pack::AlignedBuf) allocate here, not through the plain hook above.
void *
operator new(std::size_t sz, std::align_val_t al)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    void *p = std::aligned_alloc(a, ((sz ? sz : 1) + a - 1) / a * a);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace tie {
namespace cluster {

/**
 * Reads a worker's connection count, which only its accept loop owns,
 * and reaches its server.
 */
struct ClusterWorkerTestPeer
{
    static size_t
    connections(const ClusterWorker &w)
    {
        return w.conn_count_.load();
    }

    static serve::Server &
    server(ClusterWorker &w)
    {
        return *w.server_;
    }
};

namespace {

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

/** Decode a buffer that must hold exactly one valid frame. */
WireFrame
decodeWhole(const std::vector<uint8_t> &frame)
{
    WireFrame f;
    size_t consumed = 0;
    std::string err;
    EXPECT_EQ(tryDecodeFrame(frame.data(), frame.size(), &f, &consumed,
                             &err),
              DecodeStatus::Ok)
        << err;
    EXPECT_EQ(consumed, frame.size());
    return f;
}

/** Lower-case hex of @p bytes, for golden-byte comparisons. */
std::string
hex(const std::vector<uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string s;
    for (uint8_t b : bytes) {
        s += digits[b >> 4];
        s += digits[b & 0xf];
    }
    return s;
}

TEST(Wire, FrameLayoutGoldenBytes)
{
    const uint8_t payload[3] = {0xaa, 0xbb, 0xcc};
    std::vector<uint8_t> f;
    encodeFrame(WireType::InferRequest, payload, sizeof(payload), &f);
    ASSERT_EQ(f.size(), kWireHeaderSize + 3);
    // Fixed fields, byte for byte (all little-endian).
    EXPECT_EQ(f[0], 'T');
    EXPECT_EQ(f[1], 'I');
    EXPECT_EQ(f[2], 'E');
    EXPECT_EQ(f[3], 'W');
    const uint8_t version_le[4] = {1, 0, 0, 0};
    EXPECT_EQ(std::memcmp(f.data() + 4, version_le, 4), 0);
    const uint8_t type_le[4] = {3, 0, 0, 0}; // InferRequest
    EXPECT_EQ(std::memcmp(f.data() + 8, type_le, 4), 0);
    const uint8_t zero[4] = {0, 0, 0, 0};
    EXPECT_EQ(std::memcmp(f.data() + 12, zero, 4), 0); // reserved
    const uint8_t size_le[8] = {3, 0, 0, 0, 0, 0, 0, 0};
    EXPECT_EQ(std::memcmp(f.data() + 16, size_le, 8), 0);
    // CRCs match an independent computation over the same ranges.
    const uint32_t payload_crc = io::crc32(payload, sizeof(payload));
    uint32_t got;
    std::memcpy(&got, f.data() + 24, 4);
    EXPECT_EQ(got, payload_crc); // little-endian host in CI; layout
    const uint32_t header_crc = io::crc32(f.data(), 28);
    std::memcpy(&got, f.data() + 28, 4);
    EXPECT_EQ(got, header_crc);
    // Payload rides after the header, untouched.
    EXPECT_EQ(std::memcmp(f.data() + 32, payload, 3), 0);
}

TEST(Wire, InferFramesMatchProtocolV1GoldenHex)
{
    // Whole frames as the original append-a-byte-at-a-time encoders
    // produced them (header, both CRCs, fixed fields, f64 bits): the
    // in-place encoders must reproduce protocol v1 byte for byte.
    std::vector<uint8_t> f;
    const double x[4] = {1.0, -2.5, -0.0, 5e-324};
    encodeInferRequest(0x0102030405060708ull, 123456789, x, 4, &f);
    EXPECT_EQ(hex(f), "54494557010000000300000000000000"
                      "3000000000000000d4a47d00a6a6600d"
                      "080706050403020115cd5b0700000000"
                      "000000000000f03f00000000000004c0"
                      "00000000000000800100000000000000");

    const double y[2] = {0.375, std::numeric_limits<double>::infinity()};
    encodeInferResponse(42, 0, y, 2, &f);
    EXPECT_EQ(hex(f), "54494557010000000400000000000000"
                      "200000000000000090fc219121ece307"
                      "2a000000000000000000000000000000"
                      "000000000000d83f000000000000f07f");
}

TEST(Wire, EmptyPayloadRoundTrip)
{
    std::vector<uint8_t> f;
    encodeFrame(WireType::Drain, nullptr, 0, &f);
    ASSERT_EQ(f.size(), kWireHeaderSize);
    const WireFrame out = decodeWhole(f);
    EXPECT_EQ(out.type, WireType::Drain);
    EXPECT_EQ(out.payload_size, 0u);
}

TEST(Wire, TypedMessagesRoundTripBitExactly)
{
    HelloAckMsg hello;
    hello.in_size = 64;
    hello.out_size = 64;
    hello.layers = 3;
    hello.pid = 4242;
    std::vector<uint8_t> buf;
    encodeHelloAck(hello, &buf);
    HelloAckMsg hello2;
    ASSERT_TRUE(decodeHelloAck(decodeWhole(buf), &hello2));
    EXPECT_EQ(hello2.in_size, 64u);
    EXPECT_EQ(hello2.out_size, 64u);
    EXPECT_EQ(hello2.layers, 3u);
    EXPECT_EQ(hello2.pid, 4242u);

    // Hostile doubles: signed zero, denormal, inf, NaN — all must
    // survive the wire bit-for-bit.
    const std::vector<double> x = {
        1.0, -0.0, 5e-324, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    encodeInferRequest(7, 12345, x.data(), x.size(), &buf);
    InferRequestMsg req2;
    ASSERT_TRUE(decodeInferRequest(decodeWhole(buf), &req2));
    EXPECT_EQ(req2.req_id, 7u);
    EXPECT_EQ(req2.deadline_us, 12345u);
    ASSERT_EQ(req2.n, x.size());
    std::vector<double> got(req2.n);
    loadWireF64s(req2.values, req2.n, got.data());
    EXPECT_EQ(std::memcmp(got.data(), x.data(),
                          x.size() * sizeof(double)),
              0);

    const std::vector<double> y = {2.5, -0.0};
    encodeInferResponse(7, 3, y.data(), y.size(), &buf);
    InferResponseMsg resp2;
    ASSERT_TRUE(decodeInferResponse(decodeWhole(buf), &resp2));
    EXPECT_EQ(resp2.req_id, 7u);
    EXPECT_EQ(resp2.status, 3u);
    ASSERT_EQ(resp2.n, 2u);
    loadWireF64s(resp2.values, resp2.n, got.data());
    EXPECT_EQ(std::memcmp(got.data(), y.data(), 2 * sizeof(double)),
              0);

    HealthReportMsg rep;
    rep.queue_depth = 5;
    rep.in_flight = 2;
    rep.done = 100;
    rep.shed = 3;
    rep.draining = 1;
    encodeHealthReport(rep, &buf);
    HealthReportMsg rep2;
    ASSERT_TRUE(decodeHealthReport(decodeWhole(buf), &rep2));
    EXPECT_EQ(rep2.queue_depth, 5u);
    EXPECT_EQ(rep2.in_flight, 2u);
    EXPECT_EQ(rep2.done, 100u);
    EXPECT_EQ(rep2.shed, 3u);
    EXPECT_EQ(rep2.draining, 1u);
}

TEST(Wire, InferDecodersViewFramesAtEveryByteOffset)
{
    // The decoders copy no values: they point into the frame, which a
    // receive buffer may hold at any byte offset, and loadWireF64s
    // copies the values out bit for bit (under UBSan, a load through a
    // misaligned double* would abort here).
    std::vector<double> x(37);
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = std::ldexp(static_cast<double>(i) - 18.5, int(i) - 20);
    x[3] = -0.0;
    x[5] = std::numeric_limits<double>::quiet_NaN();
    x[7] = 5e-324;
    std::vector<uint8_t> req_frame, resp_frame;
    encodeInferRequest(11, 222, x.data(), x.size(), &req_frame);
    encodeInferResponse(12, 3, x.data(), x.size(), &resp_frame);
    for (size_t off = 0; off < 8; ++off) {
        SCOPED_TRACE(off);
        for (const std::vector<uint8_t> *frame : {&req_frame, &resp_frame}) {
            std::vector<uint8_t> buf(off + frame->size() + 8);
            std::memcpy(buf.data() + off, frame->data(), frame->size());
            WireFrame f;
            size_t consumed = 0;
            ASSERT_EQ(tryDecodeFrame(buf.data() + off, frame->size(), &f,
                                     &consumed),
                      DecodeStatus::Ok);
            const uint8_t *values;
            size_t n;
            if (frame == &req_frame) {
                InferRequestMsg req;
                ASSERT_TRUE(decodeInferRequest(f, &req));
                EXPECT_EQ(req.req_id, 11u);
                EXPECT_EQ(req.deadline_us, 222u);
                values = req.values;
                n = req.n;
            } else {
                InferResponseMsg resp;
                ASSERT_TRUE(decodeInferResponse(f, &resp));
                EXPECT_EQ(resp.req_id, 12u);
                EXPECT_EQ(resp.status, 3u);
                values = resp.values;
                n = resp.n;
            }
            EXPECT_EQ(values, buf.data() + off + kWireHeaderSize + 16);
            ASSERT_EQ(n, x.size());
            std::vector<double> got(n);
            loadWireF64s(values, n, got.data());
            EXPECT_EQ(std::memcmp(got.data(), x.data(), 8 * n), 0);
        }
    }
}

TEST(Wire, TypedDecodersRejectMalformedPayloads)
{
    std::vector<uint8_t> payload;
    auto view = [&payload](WireType t, size_t size) {
        payload.assign(size, 0);
        return WireFrame{t, payload.data(), payload.size()};
    };
    HelloAckMsg hello;
    // One byte short.
    EXPECT_FALSE(decodeHelloAck(view(WireType::HelloAck, 27), &hello));
    // Right size, zero in_size.
    EXPECT_FALSE(decodeHelloAck(view(WireType::HelloAck, 28), &hello));

    InferRequestMsg req;
    // Header only, no activations.
    EXPECT_FALSE(
        decodeInferRequest(view(WireType::InferRequest, 16), &req));
    // Not a multiple of 8.
    EXPECT_FALSE(
        decodeInferRequest(view(WireType::InferRequest, 16 + 12), &req));

    InferResponseMsg resp;
    WireFrame f = view(WireType::InferResponse, 16);
    payload[12] = 1; // nonzero reserved field
    EXPECT_FALSE(decodeInferResponse(f, &resp));

    // A frame of the wrong type never decodes as another message.
    EXPECT_FALSE(
        decodeInferResponse(view(WireType::HealthReport, 16), &resp));
}

TEST(Wire, EveryTruncationIsNeedMoreOrCorruptNeverOk)
{
    const double x[3] = {0.25, 0.5, 0.75};
    std::vector<uint8_t> frame;
    encodeInferRequest(1, 0, x, 3, &frame);

    for (size_t len = 0; len < frame.size(); ++len) {
        WireFrame out;
        size_t consumed = 0;
        const DecodeStatus st =
            tryDecodeFrame(frame.data(), len, &out, &consumed);
        EXPECT_NE(st, DecodeStatus::Ok) << "truncation at " << len;
    }
    // An honest truncation (clean prefix) is NeedMore specifically.
    WireFrame out;
    size_t consumed = 0;
    EXPECT_EQ(tryDecodeFrame(frame.data(), frame.size() - 1, &out,
                             &consumed),
              DecodeStatus::NeedMore);
    EXPECT_EQ(tryDecodeFrame(frame.data(), kWireHeaderSize - 1, &out,
                             &consumed),
              DecodeStatus::NeedMore);
    // And the whole frame decodes.
    EXPECT_EQ(tryDecodeFrame(frame.data(), frame.size(), &out,
                             &consumed),
              DecodeStatus::Ok);
    EXPECT_EQ(consumed, frame.size());
}

TEST(Wire, EveryBitFlipIsCorrupt)
{
    const double x[2] = {1.5, -2.5};
    std::vector<uint8_t> frame;
    encodeInferRequest(99, 1000, x, 2, &frame);

    for (size_t i = 0; i < frame.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> evil = frame;
            evil[i] ^= static_cast<uint8_t>(1u << bit);
            WireFrame out;
            size_t consumed = 0;
            std::string err;
            EXPECT_EQ(tryDecodeFrame(evil.data(), evil.size(), &out,
                                     &consumed, &err),
                      DecodeStatus::Corrupt)
                << "byte " << i << " bit " << bit
                << " slipped through (" << err << ")";
        }
    }
}

/** A Hello frame whose CRC-valid header claims @p payload bytes. */
std::vector<uint8_t>
forgedSizeClaim(uint64_t payload)
{
    std::vector<uint8_t> evil;
    encodeFrame(WireType::Hello, nullptr, 0, &evil);
    std::memcpy(evil.data() + 16, &payload, 8); // LE host
    const uint32_t crc = io::crc32(evil.data(), 28);
    std::memcpy(evil.data() + 28, &crc, 4);
    return evil;
}

TEST(Wire, OversizedPayloadClaimIsCorruptEvenWithValidCrc)
{
    // Forge a header that claims a payload over the cap but carries
    // a *correct* header CRC: the cap check must fire on its own,
    // not hide behind CRC validation.
    const std::vector<uint8_t> evil = forgedSizeClaim(kWireMaxPayload + 1);
    WireFrame out;
    size_t consumed = 0;
    std::string err;
    EXPECT_EQ(tryDecodeFrame(evil.data(), evil.size(), &out,
                             &consumed, &err),
              DecodeStatus::Corrupt);
    EXPECT_NE(err.find("cap"), std::string::npos) << err;
}

TEST(Wire, TypeRange)
{
    EXPECT_FALSE(wireTypeKnown(0));
    for (uint32_t t = 1; t <= 8; ++t)
        EXPECT_TRUE(wireTypeKnown(t)) << t;
    EXPECT_FALSE(wireTypeKnown(9));
    EXPECT_FALSE(wireTypeKnown(0xffffffffu));
}

// ---------------------------------------------------------------------
// Socket layer
// ---------------------------------------------------------------------

TEST(Socket, ParseEndpoint)
{
    Endpoint ep;
    EXPECT_TRUE(parseEndpoint("tcp:0", &ep));
    EXPECT_EQ(ep.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(ep.port, 0);
    EXPECT_TRUE(parseEndpoint("tcp:65535", &ep));
    EXPECT_EQ(ep.port, 65535);
    EXPECT_TRUE(parseEndpoint("unix:/tmp/w0.sock", &ep));
    EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(ep.path, "/tmp/w0.sock");
    EXPECT_EQ(ep.toString(), "unix:/tmp/w0.sock");

    std::string err;
    EXPECT_FALSE(parseEndpoint("", &ep, &err));
    EXPECT_FALSE(parseEndpoint("tcp:", &ep, &err));
    EXPECT_FALSE(parseEndpoint("tcp:abc", &ep, &err));
    EXPECT_FALSE(parseEndpoint("tcp:70000", &ep, &err));
    EXPECT_FALSE(parseEndpoint("tcp:-1", &ep, &err));
    EXPECT_FALSE(parseEndpoint("unix:", &ep, &err));
    EXPECT_FALSE(parseEndpoint("http:8080", &ep, &err));
    EXPECT_FALSE(parseEndpoint(
        "unix:/" + std::string(200, 'x'), &ep, &err));
}

TEST(Socket, SendAllTimedIsBoundedOnAStalledReader)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    // Shrink the send buffer so a modest payload jams immediately;
    // the peer never reads a byte (the stalled-scraper scenario).
    const int small = 4096;
    ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));

    const std::vector<uint8_t> big(1 << 20, 0x5a);
    const auto t0 = std::chrono::steady_clock::now();
    std::string err;
    const bool ok =
        sendAllTimed(sv[0], big.data(), big.size(), 200, &err);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_FALSE(ok);
    EXPECT_FALSE(err.empty());
    // Bounded: the deadline, not the peer, decides. Generous slack
    // for a loaded 1-CPU CI box.
    EXPECT_LT(elapsed_ms, 5000.0);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(Socket, FrameConnReassemblesSplitFramesAndFailsStop)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    FrameConn rx(sv[1]);

    const double y[3] = {1.0, 2.0, 3.0};
    std::vector<uint8_t> frame;
    encodeInferResponse(11, 3, y, 3, &frame);
    const std::vector<uint8_t> payload(frame.begin() + kWireHeaderSize,
                                       frame.end());

    // Dribble the frame in two arbitrary chunks; the first recv must
    // time out (frame incomplete) but keep the partial bytes.
    const size_t cut = 13;
    ASSERT_EQ(::send(sv[0], frame.data(), cut, 0),
              static_cast<ssize_t>(cut));
    WireFrame out;
    EXPECT_EQ(rx.recvFrame(&out, 50), FrameConn::RecvStatus::Timeout);
    ASSERT_EQ(::send(sv[0], frame.data() + cut, frame.size() - cut, 0),
              static_cast<ssize_t>(frame.size() - cut));
    ASSERT_EQ(rx.recvFrame(&out, 1000), FrameConn::RecvStatus::Ok);
    EXPECT_EQ(out.type, WireType::InferResponse);
    EXPECT_EQ(std::vector<uint8_t>(out.payload,
                                   out.payload + out.payload_size),
              payload);

    // Two frames in one burst: both decode, in order.
    std::vector<uint8_t> drain;
    encodeFrame(WireType::Drain, nullptr, 0, &drain);
    std::vector<uint8_t> burst = frame;
    burst.insert(burst.end(), drain.begin(), drain.end());
    EXPECT_FALSE(rx.inputPending());
    ASSERT_EQ(::send(sv[0], burst.data(), burst.size(), 0),
              static_cast<ssize_t>(burst.size()));
    EXPECT_TRUE(rx.inputPending());
    ASSERT_EQ(rx.recvFrame(&out, 1000), FrameConn::RecvStatus::Ok);
    EXPECT_EQ(out.type, WireType::InferResponse);
    EXPECT_TRUE(rx.inputPending()); // the Drain frame is on its way
    ASSERT_EQ(rx.recvFrame(&out, 1000), FrameConn::RecvStatus::Ok);
    EXPECT_EQ(out.type, WireType::Drain);
    EXPECT_FALSE(rx.inputPending());

    // A corrupted frame is fail-stop.
    std::vector<uint8_t> evil = frame;
    evil[5] ^= 0x01;
    ASSERT_EQ(::send(sv[0], evil.data(), evil.size(), 0),
              static_cast<ssize_t>(evil.size()));
    std::string err;
    EXPECT_EQ(rx.recvFrame(&out, 1000, &err),
              FrameConn::RecvStatus::Corrupt);
    EXPECT_FALSE(err.empty());

    // Orderly close reads as Closed, not an error.
    rx.reset(sv[1] >= 0 ? ::dup(sv[1]) : -1);
    ::close(sv[0]);
    EXPECT_EQ(rx.recvFrame(&out, 1000), FrameConn::RecvStatus::Closed);
}

TEST(Socket, FrameConnRejectsAClaimOverItsCapBeforeBuffering)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    FrameConn rx(sv[1]);
    rx.setMaxPayload(64);

    // A frame right at the cap is received whole...
    const std::vector<uint8_t> body(64, 0x11);
    std::vector<uint8_t> frame;
    encodeFrame(WireType::Hello, body.data(), body.size(), &frame);
    ASSERT_TRUE(sendAllTimed(sv[0], frame.data(), frame.size(), 1000));
    WireFrame out;
    ASSERT_EQ(rx.recvFrame(&out, 1000), FrameConn::RecvStatus::Ok);
    EXPECT_EQ(out.payload_size, 64u);

    // ...and a CRC-valid header claiming one byte more is Corrupt on
    // the header alone: no payload follows, and none is waited for.
    const std::vector<uint8_t> evil = forgedSizeClaim(65);
    ASSERT_TRUE(sendAllTimed(sv[0], evil.data(), evil.size(), 1000));
    std::string err;
    EXPECT_EQ(rx.recvFrame(&out, 1000, &err),
              FrameConn::RecvStatus::Corrupt);
    EXPECT_NE(err.find("cap"), std::string::npos) << err;
    EXPECT_LE(rx.rxCapacity(), kWireHeaderSize + 64);
    ::close(sv[0]);
}

TEST(Socket, ListenConnectRoundTripTcpAndUnix)
{
    for (const bool tcp : {true, false}) {
        Endpoint ep;
        char tmpl[] = "/tmp/tie-sock-XXXXXX";
        if (tcp) {
            ep.kind = Endpoint::Kind::Tcp;
            ep.port = 0; // ephemeral
        } else {
            ASSERT_NE(::mkdtemp(tmpl), nullptr);
            ep.kind = Endpoint::Kind::Unix;
            ep.path = std::string(tmpl) + "/s.sock";
        }
        Listener l;
        std::string err;
        ASSERT_TRUE(listen(ep, &l, &err)) << err;
        if (tcp) {
            EXPECT_GT(l.endpoint.port, 0); // resolved ephemeral
        }

        const int cfd = connectTimed(l.endpoint, 1000, &err);
        ASSERT_GE(cfd, 0) << err;
        const int sfd = acceptTimed(l, 1000);
        ASSERT_GE(sfd, 0);

        FrameConn client(cfd), server(sfd);
        ASSERT_TRUE(client.sendFrame(WireType::Hello, nullptr, 0,
                                     1000, &err))
            << err;
        WireFrame f;
        ASSERT_EQ(server.recvFrame(&f, 1000),
                  FrameConn::RecvStatus::Ok);
        EXPECT_EQ(f.type, WireType::Hello);
        closeListener(l);
        if (!tcp) {
            // closeListener unlinked the socket file.
            EXPECT_NE(::access(ep.path.c_str(), F_OK), 0);
            ::rmdir(tmpl);
        }
    }
}

// ---------------------------------------------------------------------
// Process control
// ---------------------------------------------------------------------

TEST(Process, SpawnReadLineAndReap)
{
    ChildProcess c;
    std::string err;
    ASSERT_TRUE(
        spawnProcess({"/bin/echo", "ready tcp:1234"}, &c, &err))
        << err;
    std::string line;
    ASSERT_TRUE(readLine(c.stdout_fd, &line, 5000));
    EXPECT_EQ(line, "ready tcp:1234");
    const int status = waitProcess(c);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(Process, ExecFailureIsReportedNotSilent)
{
    ChildProcess c;
    std::string err;
    EXPECT_FALSE(spawnProcess(
        {"/nonexistent/definitely-not-a-binary"}, &c, &err));
    EXPECT_NE(err.find("exec"), std::string::npos) << err;
    EXPECT_FALSE(c.running());
}

TEST(Process, ReadLineTimesOutOnASilentChild)
{
    ChildProcess c;
    std::string err;
    ASSERT_TRUE(spawnProcess({"/bin/sleep", "30"}, &c, &err)) << err;
    std::string line;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(readLine(c.stdout_fd, &line, 100));
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_LT(ms, 5000.0);
    killProcess(c, SIGKILL);
    waitProcess(c);
}

// ---------------------------------------------------------------------
// Worker + router integration (in-process, real sockets)
// ---------------------------------------------------------------------

/** Shared fixture: one small .tie artifact in a temp dir. */
class ClusterTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/tie-cluster-test-XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        TtLayerConfig cfg;
        cfg.m = {4, 4};
        cfg.n = {4, 4};
        cfg.r = {1, 3, 1};
        Rng rng(7);
        const TtMatrix layer = TtMatrix::random(cfg, rng);
        model_path_ = dir_ + "/model.tie";
        io::saveTieModel(layer, model_path_);
    }

    void
    TearDown() override
    {
        ::unlink(model_path_.c_str());
        ::rmdir(dir_.c_str());
    }

    /** A replica serving @p model (default: the fixture's). */
    std::unique_ptr<ClusterWorker>
    makeWorker(const std::string &name, const std::string &model = "")
    {
        ClusterWorkerOptions opts;
        opts.listen.kind = Endpoint::Kind::Unix;
        opts.listen.path = dir_ + "/" + name + ".sock";
        opts.server.workers = 1;
        opts.server.max_batch = 4;
        opts.server.queue_capacity = 32;
        auto w = std::make_unique<ClusterWorker>(
            io::TieModel::load(model.empty() ? model_path_ : model),
            opts);
        std::string err;
        EXPECT_TRUE(w->start(&err)) << err;
        return w;
    }

    std::string dir_;
    std::string model_path_;
};

TEST_F(ClusterTest, ShardedLoadIsBitIdenticalToReference)
{
    auto w0 = makeWorker("w0");
    auto w1 = makeWorker("w1");

    RouterOptions ropts;
    ropts.workers = {w0->endpoint(), w1->endpoint()};
    Router router(ropts);
    std::string err;
    ASSERT_TRUE(router.start(&err)) << err;
    EXPECT_EQ(router.liveWorkers(), 2u);
    EXPECT_EQ(router.inSize(), 16u);
    EXPECT_EQ(router.outSize(), 16u);

    serve::LoadGenOptions lopts;
    lopts.requests = 48;
    lopts.clients = 4;
    lopts.seed = 3;
    const io::TieModel oracle = io::TieModel::load(model_path_);
    const std::vector<serve::Oracle> expected{serve::referenceOutputs(
        oracle.layers(), 0, 1, lopts.seed, lopts.requests)};
    const serve::LoadGenReport rep = serve::runLoadGen(
        std::vector<Router *>{&router}, lopts, &expected);

    EXPECT_EQ(rep.completed, 48u);
    EXPECT_EQ(rep.rejected, 0u);
    EXPECT_EQ(rep.timed_out, 0u);
    EXPECT_EQ(rep.mismatched, 0u);

    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.accepted, 48u);
    EXPECT_EQ(stats.done, 48u);
    // Load-aware dispatch actually sharded: with 4 closed-loop
    // clients both replicas must have served something.
    EXPECT_GT(w0->doneCount(), 0u);
    EXPECT_GT(w1->doneCount(), 0u);
    EXPECT_EQ(w0->doneCount() + w1->doneCount(), 48u);

    router.stop();
    w0->stop();
    w1->stop();
}

TEST_F(ClusterTest, MixedTrafficOverTwoRoutersIsBitExactPerTenant)
{
    // A second, different model (12 -> 8 beside the fixture's
    // 16 -> 16), each behind its own worker and Router: the load
    // generator's mixed traffic, one process boundary out.
    TtLayerConfig cfg;
    cfg.m = {2, 4};
    cfg.n = {3, 4};
    cfg.r = {1, 2, 1};
    Rng rng(11);
    const std::string other_path = dir_ + "/other.tie";
    io::saveTieModel(TtMatrix::random(cfg, rng), other_path);
    const std::vector<std::string> paths{model_path_, other_path};

    serve::LoadGenOptions lopts;
    lopts.requests = 41;
    lopts.clients = 3;
    lopts.seed = 13;
    std::vector<std::unique_ptr<ClusterWorker>> workers;
    std::vector<std::unique_ptr<Router>> routers;
    std::vector<Router *> targets;
    std::vector<serve::Oracle> expected;
    for (size_t k = 0; k < paths.size(); ++k) {
        workers.push_back(makeWorker(std::to_string(k), paths[k]));
        RouterOptions ropts;
        ropts.workers = {workers.back()->endpoint()};
        routers.push_back(std::make_unique<Router>(ropts));
        std::string err;
        ASSERT_TRUE(routers.back()->start(&err)) << err;
        targets.push_back(routers.back().get());
        expected.push_back(serve::referenceOutputs(
            io::TieModel::load(paths[k]).layers(), k, paths.size(),
            lopts.seed, lopts.requests));
    }
    EXPECT_NE(targets[0]->inSize(), targets[1]->inSize());

    const serve::LoadGenReport rep =
        serve::runLoadGen(targets, lopts, &expected);
    // Zero lost, all served, every output bit-exact.
    EXPECT_EQ(rep.submitted, lopts.requests);
    EXPECT_EQ(rep.completed + rep.rejected + rep.timed_out,
              lopts.requests);
    EXPECT_EQ(rep.completed, lopts.requests);
    EXPECT_EQ(rep.mismatched, 0u);
    // Request i went to tenant i % 2, and each tenant's replica
    // served exactly its share.
    ASSERT_EQ(rep.per_tenant.size(), 2u);
    EXPECT_EQ(rep.per_tenant[0].submitted, 21u);
    EXPECT_EQ(rep.per_tenant[1].submitted, 20u);
    for (size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(rep.per_tenant[k].completed,
                  rep.per_tenant[k].submitted);
        EXPECT_EQ(rep.per_tenant[k].mismatched, 0u);
        EXPECT_EQ(workers[k]->doneCount(), rep.per_tenant[k].completed);
    }

    for (const std::unique_ptr<Router> &r : routers)
        r->stop();
    for (const std::unique_ptr<ClusterWorker> &w : workers)
        w->stop();
    ::unlink(other_path.c_str());
}

TEST_F(ClusterTest, CrossReplicaOutputsAreByteIdentical)
{
    // The same request served by two independent replicas must
    // produce the same bytes — the invariant that makes fail-over
    // redispatch sound.
    auto w0 = makeWorker("a");
    auto w1 = makeWorker("b");
    for (size_t i = 0; i < 2; ++i) {
        std::vector<std::vector<double>> outs;
        for (ClusterWorker *w : {w0.get(), w1.get()}) {
            RouterOptions ropts;
            ropts.workers = {w->endpoint()};
            Router router(ropts);
            std::string err;
            ASSERT_TRUE(router.start(&err)) << err;
            const std::vector<double> x =
                serve::makeRequestInput(17, i, router.inSize());
            const ClusterTicket t = router.submit(x.data());
            ASSERT_TRUE(t.valid());
            std::vector<double> y;
            ASSERT_EQ(router.wait(t, &y), ClusterStatus::Done);
            outs.push_back(std::move(y));
            router.stop();
        }
        ASSERT_EQ(outs[0].size(), outs[1].size());
        EXPECT_EQ(std::memcmp(outs[0].data(), outs[1].data(),
                              outs[0].size() * sizeof(double)),
                  0)
            << "replicas disagreed on request " << i;
    }
    w0->stop();
    w1->stop();
}

TEST_F(ClusterTest, DeadReplicaFailsOverWithoutLosingRequests)
{
    auto w0 = makeWorker("w0");
    auto w1 = makeWorker("w1");

    RouterOptions ropts;
    ropts.workers = {w0->endpoint(), w1->endpoint()};
    ropts.health_period_ms = 50;
    Router router(ropts);
    std::string err;
    ASSERT_TRUE(router.start(&err)) << err;

    // Kill one replica out from under the router, then drive load
    // before it has necessarily noticed: requests dispatched to the
    // dead replica must fail over, not hang or vanish.
    w0->stop();

    serve::LoadGenOptions lopts;
    lopts.requests = 32;
    lopts.clients = 4;
    lopts.seed = 5;
    const io::TieModel oracle = io::TieModel::load(model_path_);
    const std::vector<serve::Oracle> expected{serve::referenceOutputs(
        oracle.layers(), 0, 1, lopts.seed, lopts.requests)};
    const serve::LoadGenReport rep = serve::runLoadGen(
        std::vector<Router *>{&router}, lopts, &expected);

    const RouterStats stats = router.stats();
    const std::string outcome = strCat(
        "completed ", rep.completed, " rejected ", rep.rejected,
        " timed_out ", rep.timed_out, "; router shed ", stats.shed,
        " redispatched ", stats.redispatched, " deaths ",
        stats.worker_deaths, " reconnects ", stats.reconnects,
        " live ", router.liveWorkers());
    // Zero lost: every request has a terminal outcome...
    EXPECT_EQ(rep.completed + rep.rejected + rep.timed_out,
              lopts.requests) << outcome;
    // ...every completed one is bit-exact, and the live replica
    // carried the load.
    EXPECT_EQ(rep.mismatched, 0u);
    EXPECT_GT(rep.completed, 0u) << outcome;

    EXPECT_GE(stats.worker_deaths, 1u) << outcome;
    EXPECT_EQ(router.liveWorkers(), 1u) << outcome;

    router.stop();
    w1->stop();
}

/**
 * A scripted replica on a unix socket. It handshakes and answers
 * health probes like a ClusterWorker, and it swallows every
 * InferRequest, or with Mode::Refuse answers each one Rejected.
 * deafen() makes the router's sends on the data connection fail while
 * the router's receiver still sees an open stream: a replica that is
 * dead but not yet detected. kill() drops the data connection, which
 * the router's receiver does see.
 */
class FakeReplica
{
  public:
    enum class Mode { Swallow, Refuse };

    FakeReplica(const std::string &path, uint64_t n, Mode mode)
        : n_(n), mode_(mode)
    {
        Endpoint ep;
        ep.kind = Endpoint::Kind::Unix;
        ep.path = path;
        std::string err;
        EXPECT_TRUE(listen(ep, &listener_, &err)) << err;
        endpoint_ = listener_.endpoint;
        accept_ = std::thread([this] {
            // The router connects its data connection, then its
            // health connection. Later connects (a monitor reattach)
            // find no listener and fail at once.
            data_.reset(acceptTimed(listener_, 5000));
            data_fd_.store(data_.fd());
            health_.reset(acceptTimed(listener_, 5000));
            closeListener(listener_);
            std::thread data([this] { serve(data_); });
            serve(health_);
            data.join();
        });
    }

    ~FakeReplica()
    {
        stop_.store(true);
        accept_.join();
    }

    Endpoint endpoint() const { return endpoint_; }

    void deafen() { ::shutdown(data_fd_.load(), SHUT_RD); }
    void kill() { ::shutdown(data_fd_.load(), SHUT_RDWR); }

  private:
    /** Answer frames until stopped or the connection ends (left open). */
    void
    serve(FrameConn &c)
    {
        WireFrame f;
        InferRequestMsg req;
        std::vector<uint8_t> tx;
        while (!stop_.load()) {
            const FrameConn::RecvStatus st = c.recvFrame(&f, 50);
            if (st == FrameConn::RecvStatus::Timeout)
                continue;
            if (st != FrameConn::RecvStatus::Ok)
                return;
            if (f.type == WireType::Hello) {
                encodeHelloAck(HelloAckMsg{n_, n_, 1, 0}, &tx);
            } else if (f.type == WireType::HealthCheck) {
                encodeHealthReport(HealthReportMsg{}, &tx);
            } else if (f.type == WireType::InferRequest &&
                       mode_ == Mode::Refuse &&
                       decodeInferRequest(f, &req)) {
                encodeInferResponse(
                    req.req_id,
                    static_cast<uint32_t>(serve::RequestStatus::Rejected),
                    nullptr, 0, &tx);
            } else {
                continue;
            }
            c.send(tx, 1000);
        }
    }

    const uint64_t n_;
    const Mode mode_;
    Listener listener_;
    Endpoint endpoint_;
    FrameConn data_, health_;
    std::atomic<int> data_fd_{-1};
    std::atomic<bool> stop_{false};
    std::thread accept_;
};

/** A router over @p eps that probes health once, at start. */
RouterOptions
quietRouter(std::vector<Endpoint> eps)
{
    RouterOptions ropts;
    ropts.workers = std::move(eps);
    ropts.health_period_ms = 60000;
    return ropts;
}

TEST_F(ClusterTest, FailOverRetiresAnUndetectedDeadReplica)
{
    // Replica 0 swallows the one request; replica 1 is dead but not
    // yet detected; replica 2 is a real worker. Loads tie at zero, so
    // dispatch prefers the lower index each time.
    FakeReplica owner(dir_ + "/owner.sock", 16,
                      FakeReplica::Mode::Swallow);
    FakeReplica undetected(dir_ + "/undetected.sock", 16,
                           FakeReplica::Mode::Swallow);
    auto live = makeWorker("live");
    Router router(quietRouter(
        {owner.endpoint(), undetected.endpoint(), live->endpoint()}));
    std::string err;
    ASSERT_TRUE(router.start(&err)) << err;
    ASSERT_EQ(router.liveWorkers(), 3u);

    const std::vector<double> x =
        serve::makeRequestInput(19, 0, router.inSize());
    const ClusterTicket t = router.submit(x.data());
    ASSERT_TRUE(t.valid());

    // The owner dies with the request outstanding. Fail-over picks
    // the undetected replica first; its send fails, so it must be
    // retired and the request sent on to the live one, not shed.
    undetected.deafen();
    owner.kill();
    std::vector<double> y;
    ASSERT_EQ(router.wait(t, &y), ClusterStatus::Done);
    const io::TieModel oracle = io::TieModel::load(model_path_);
    const std::vector<double> ref =
        serve::referenceOutputs(oracle.layers(), 0, 1, 19, 1)[0];
    ASSERT_EQ(y.size(), ref.size());
    EXPECT_EQ(0, std::memcmp(y.data(), ref.data(),
                             y.size() * sizeof(double)));

    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.done, 1u);
    EXPECT_EQ(stats.redispatched, 2u);
    EXPECT_EQ(stats.worker_deaths, 2u);
    EXPECT_EQ(router.liveWorkers(), 1u);
    EXPECT_EQ(live->doneCount(), 1u);
    router.stop();
    live->stop();
}

TEST_F(ClusterTest, RejectedRetryRetiresAnUndetectedDeadReplica)
{
    // Replica 0 refuses everything; replica 1 is dead but not yet
    // detected; replica 2 is a real worker.
    FakeReplica refuser(dir_ + "/refuser.sock", 16,
                        FakeReplica::Mode::Refuse);
    FakeReplica undetected(dir_ + "/undetected.sock", 16,
                           FakeReplica::Mode::Swallow);
    auto live = makeWorker("live");
    Router router(quietRouter(
        {refuser.endpoint(), undetected.endpoint(), live->endpoint()}));
    std::string err;
    ASSERT_TRUE(router.start(&err)) << err;
    undetected.deafen();

    const io::TieModel oracle = io::TieModel::load(model_path_);
    const size_t requests = 4;
    const std::vector<std::vector<double>> ref =
        serve::referenceOutputs(oracle.layers(), 0, 1, 23, requests);
    std::vector<double> y;
    for (size_t i = 0; i < requests; ++i) {
        // Each lands on the refuser first; its Rejected retry must
        // skip the dead replica and reach the live one.
        const std::vector<double> x =
            serve::makeRequestInput(23, i, router.inSize());
        const ClusterTicket t = router.submit(x.data());
        ASSERT_TRUE(t.valid());
        ASSERT_EQ(router.wait(t, &y), ClusterStatus::Done)
            << "request " << i;
        EXPECT_EQ(0, std::memcmp(y.data(), ref[i].data(),
                                 y.size() * sizeof(double)));
    }
    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.done, requests);
    EXPECT_EQ(stats.worker_deaths, 1u);
    EXPECT_EQ(router.liveWorkers(), 2u);
    EXPECT_EQ(live->doneCount(), requests);
    router.stop();
    live->stop();
}

TEST_F(ClusterTest, OneConnectionBurstCoalescesIntoOneBatch)
{
    ClusterWorkerOptions opts;
    opts.listen.kind = Endpoint::Kind::Unix;
    opts.listen.path = dir_ + "/burst.sock";
    opts.server.workers = 2;
    opts.server.max_batch = 8;
    opts.server.batch_timeout_us = 1000000; // only a full batch ends it
    ClusterWorker w0(io::TieModel::load(model_path_), opts);
    std::string err;
    ASSERT_TRUE(w0.start(&err)) << err;
    obs::StatRegistry &reg = obs::StatRegistry::instance();
    obs::setEnabled(true);
    reg.resetAll();

    // Eight requests in one write. The worker's reader sees more bytes
    // behind each of the first seven, so it queues them rather than
    // run them itself, and the eighth queues behind them: the worker
    // threads get one full batch.
    const int fd = connectTimed(w0.endpoint(), 1000, &err);
    ASSERT_GE(fd, 0) << err;
    FrameConn conn(fd);
    std::vector<uint8_t> burst, frame;
    for (uint64_t i = 0; i < 8; ++i) {
        const std::vector<double> x(16, 0.25 * static_cast<double>(i));
        encodeInferRequest(i, 0, x.data(), x.size(), &frame);
        burst.insert(burst.end(), frame.begin(), frame.end());
    }
    ASSERT_TRUE(sendAllTimed(fd, burst.data(), burst.size(), 1000, &err))
        << err;
    for (uint64_t i = 0; i < 8; ++i) {
        WireFrame f;
        InferResponseMsg resp;
        ASSERT_EQ(conn.recvFrame(&f, 5000), FrameConn::RecvStatus::Ok);
        ASSERT_TRUE(decodeInferResponse(f, &resp));
        EXPECT_EQ(resp.req_id, i);
        EXPECT_EQ(resp.status,
                  static_cast<uint32_t>(serve::RequestStatus::Done));
    }
    EXPECT_EQ(reg.counter("serve.batches").value(), 1u);
    EXPECT_EQ(reg.distribution("serve.batch_size").snapshot().max, 8.0);
    obs::setEnabled(false);
    reg.resetAll();
    conn.close();
    w0.stop();
}

/** Entries of /proc/self/fd: the descriptors this process has open. */
size_t
openFdCount()
{
    size_t n = 0;
    for (const auto &e :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        (void)e;
        ++n;
    }
    return n;
}

/** InferRequest frames for ids [first, first + n), concatenated. */
std::vector<uint8_t>
requestBurst(uint64_t first, uint64_t n, size_t in_size)
{
    std::vector<uint8_t> burst, frame;
    for (uint64_t i = first; i < first + n; ++i) {
        const std::vector<double> x(in_size, 0.125 * static_cast<double>(i));
        encodeInferRequest(i, 0, x.data(), x.size(), &frame);
        burst.insert(burst.end(), frame.begin(), frame.end());
    }
    return burst;
}

/** Read one InferResponse off @p conn; its status, or ~0u on failure. */
uint32_t
readResponse(FrameConn &conn, uint64_t want_id)
{
    WireFrame f;
    InferResponseMsg resp;
    if (conn.recvFrame(&f, 5000) != FrameConn::RecvStatus::Ok ||
        !decodeInferResponse(f, &resp)) {
        ADD_FAILURE() << "no InferResponse for request " << want_id;
        return ~0u;
    }
    EXPECT_EQ(resp.req_id, want_id);
    return resp.status;
}

TEST_F(ClusterTest, DrainAckFollowsEveryResponseOwedOnItsConnection)
{
    // More requests than the connection's ring of owed responses
    // (max_batch 4 x 1 worker + 1), then a Drain, all in one write.
    auto w0 = makeWorker("w0");
    std::string err;
    const int fd = connectTimed(w0->endpoint(), 1000, &err);
    ASSERT_GE(fd, 0) << err;
    FrameConn conn(fd);
    std::vector<uint8_t> bytes = requestBurst(0, 8, 16), frame;
    encodeFrame(WireType::Drain, nullptr, 0, &frame);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    ASSERT_TRUE(sendAllTimed(fd, bytes.data(), bytes.size(), 1000, &err))
        << err;

    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(readResponse(conn, i),
                  static_cast<uint32_t>(serve::RequestStatus::Done));
    WireFrame f;
    ASSERT_EQ(conn.recvFrame(&f, 5000), FrameConn::RecvStatus::Ok);
    EXPECT_EQ(f.type, WireType::DrainAck);
    EXPECT_TRUE(w0->waitDrained(5000));

    // A drained replica refuses the next request explicitly.
    bytes = requestBurst(8, 1, 16);
    ASSERT_TRUE(sendAllTimed(fd, bytes.data(), bytes.size(), 1000, &err))
        << err;
    EXPECT_EQ(readResponse(conn, 8),
              static_cast<uint32_t>(serve::RequestStatus::Rejected));
    EXPECT_EQ(w0->doneCount(), 8u);
    EXPECT_EQ(w0->shedCount(), 1u);
    conn.close();
    w0->stop();
}

TEST_F(ClusterTest, PipelinedBurstIsAnsweredOnceInOrder)
{
    // Four rings' worth of requests in one write to a worker with a
    // two-request queue: each is answered exactly once, in order,
    // Done or Rejected, and the worker's counters cover the burst.
    // With two worker threads a later batch may finish first; its
    // responses still wait their turn.
    for (const size_t workers : {size_t{1}, size_t{2}}) {
        SCOPED_TRACE(::testing::Message() << "workers " << workers);
        ClusterWorkerOptions opts;
        opts.listen.kind = Endpoint::Kind::Unix;
        opts.listen.path = dir_ + "/pipe.sock";
        opts.server.workers = workers;
        opts.server.max_batch = 4;
        opts.server.queue_capacity = 2;
        ClusterWorker w0(io::TieModel::load(model_path_), opts);
        std::string err;
        ASSERT_TRUE(w0.start(&err)) << err;
        const uint64_t burst = 4 * (4 * workers + 1);

        const int fd = connectTimed(w0.endpoint(), 1000, &err);
        ASSERT_GE(fd, 0) << err;
        FrameConn conn(fd);
        const std::vector<uint8_t> bytes = requestBurst(0, burst, 16);
        ASSERT_TRUE(
            sendAllTimed(fd, bytes.data(), bytes.size(), 1000, &err))
            << err;
        uint64_t done = 0;
        for (uint64_t i = 0; i < burst; ++i) {
            const uint32_t st = readResponse(conn, i);
            EXPECT_TRUE(
                st == static_cast<uint32_t>(serve::RequestStatus::Done) ||
                st == static_cast<uint32_t>(
                          serve::RequestStatus::Rejected))
                << "request " << i << " status " << st;
            done += st == static_cast<uint32_t>(serve::RequestStatus::Done);
        }
        EXPECT_GT(done, 0u);
        EXPECT_EQ(w0.doneCount(), done);
        EXPECT_EQ(w0.doneCount() + w0.shedCount(), burst);
        EXPECT_EQ(w0.inFlight(), 0u);
        conn.close();
        w0.stop();
    }
}

TEST_F(ClusterTest, PeersThatHangUpOwingResponsesLeaveNoTrace)
{
    // 64 peers each pipeline eight requests and close without reading
    // a response, then a live client opens eight connections and runs
    // closed-loop traffic over them. The server's chains are lent to
    // the test until the live connections are accepted, so the peers'
    // tickets are still owed when their threads see EOF: a completion
    // pipe closed then would pass its fd number on to a live
    // connection, and the ids still owed to it would land there. The
    // pipes close only after the last id: the live client gets exactly
    // its own responses, bit-exact, and nothing stays in flight.
    ClusterWorkerOptions opts;
    opts.listen.kind = Endpoint::Kind::Unix;
    opts.listen.path = dir_ + "/hangup.sock";
    opts.server.workers = 2;
    opts.server.max_batch = 4;
    opts.server.queue_capacity = 1024;
    ClusterWorker w0(io::TieModel::load(model_path_), opts);
    std::string err;
    ASSERT_TRUE(w0.start(&err)) << err;

    constexpr uint64_t kPeers = 64, kBurst = 8, kLiveConns = 8;
    std::vector<std::unique_ptr<FrameConn>> live;
    {
        const auto held = serve::ServerTestPeer::holdChains(
            ClusterWorkerTestPeer::server(w0));
        const std::vector<uint8_t> burst = requestBurst(1000, kBurst, 16);
        for (uint64_t i = 0; i < kPeers; ++i) {
            const int fd = connectTimed(w0.endpoint(), 1000, &err);
            ASSERT_GE(fd, 0) << err;
            EXPECT_TRUE(
                sendAllTimed(fd, burst.data(), burst.size(), 1000, &err))
                << err;
            ::close(fd);
        }
        // Every request is queued behind the lent chains; give the
        // peers' threads time to read their EOF.
        for (int i = 0; i < 250 && w0.inFlight() < kPeers * kBurst; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ASSERT_EQ(w0.inFlight(), kPeers * kBurst);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        for (uint64_t i = 0; i < kLiveConns; ++i) {
            const int fd = connectTimed(w0.endpoint(), 1000, &err);
            ASSERT_GE(fd, 0) << err;
            live.push_back(std::make_unique<FrameConn>(fd));
        }
        for (int i = 0; i < 250 && ClusterWorkerTestPeer::connections(w0) <
                                       kPeers + kLiveConns;
             ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ASSERT_EQ(ClusterWorkerTestPeer::connections(w0),
                  kPeers + kLiveConns);
    }

    constexpr uint64_t kLive = 256;
    constexpr uint64_t kSeed = 31;
    const io::TieModel oracle = io::TieModel::load(model_path_);
    const serve::Oracle expected =
        serve::referenceOutputs(oracle.layers(), 0, 1, kSeed, kLive);
    std::vector<uint8_t> frame;
    InferResponseMsg resp;
    for (uint64_t i = 0; i < kLive; ++i) {
        FrameConn &conn = *live[i % kLiveConns];
        const std::vector<double> x = serve::makeRequestInput(kSeed, i, 16);
        encodeInferRequest(i, 0, x.data(), x.size(), &frame);
        ASSERT_TRUE(sendAllTimed(conn.fd(), frame.data(), frame.size(),
                                 1000, &err))
            << err;
        WireFrame f;
        ASSERT_EQ(conn.recvFrame(&f, 5000), FrameConn::RecvStatus::Ok)
            << "request " << i;
        ASSERT_TRUE(decodeInferResponse(f, &resp));
        ASSERT_EQ(resp.req_id, i);
        ASSERT_EQ(resp.status,
                  static_cast<uint32_t>(serve::RequestStatus::Done));
        ASSERT_EQ(resp.n, expected[i].size());
        std::vector<double> y(resp.n);
        loadWireF64s(resp.values, resp.n, y.data());
        EXPECT_EQ(std::memcmp(y.data(), expected[i].data(),
                              y.size() * sizeof(double)),
                  0)
            << "request " << i;
    }
    live.clear();

    // Every connection thread finishes on its own, each request Done.
    const uint64_t total = kLive + kPeers * kBurst;
    for (int i = 0; i < 250 && (w0.inFlight() != 0 ||
                                w0.doneCount() + w0.shedCount() < total);
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(w0.inFlight(), 0u);
    EXPECT_EQ(w0.doneCount(), total);
    EXPECT_EQ(w0.shedCount(), 0u);
    w0.stop();
}

TEST_F(ClusterTest, AStalledPartialFrameDoesNotHoldUpOwedResponses)
{
    // Four requests, then the first half of a fifth: the four are
    // answered while the fifth is still arriving.
    auto w0 = makeWorker("w0");
    std::string err;
    const int fd = connectTimed(w0->endpoint(), 1000, &err);
    ASSERT_GE(fd, 0) << err;
    FrameConn conn(fd);
    const std::vector<uint8_t> bytes = requestBurst(0, 5, 16);
    const size_t cut = bytes.size() - bytes.size() / 10;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(sendAllTimed(fd, bytes.data(), cut, 1000, &err)) << err;
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(readResponse(conn, i),
                  static_cast<uint32_t>(serve::RequestStatus::Done));
    // The worker blocks in poll() with no timeout on the socket and
    // its completion pipe, so each owed response leaves when its batch
    // completes, not when the half-sent fifth frame next moves.
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_LT(ms, 200.0);
    ASSERT_TRUE(sendAllTimed(fd, bytes.data() + cut, bytes.size() - cut,
                             1000, &err))
        << err;
    EXPECT_EQ(readResponse(conn, 4),
              static_cast<uint32_t>(serve::RequestStatus::Done));
    conn.close();
    w0->stop();
}

TEST_F(ClusterTest, FinishedConnectionsAreReaped)
{
    auto w0 = makeWorker("w0");
    std::string err;
    // Each connection owns a socket and a completion pipe; reaping
    // closes all three fds.
    const size_t fds_before = openFdCount();

    // 64 short-lived peers, every other one speaking garbage. Each
    // reads the worker's end of stream before closing, so its
    // connection thread has finished.
    const char garbage[] = "GET / HTTP/1.0\r\n\r\n";
    for (int i = 0; i < 64; ++i) {
        const int fd = connectTimed(w0->endpoint(), 1000, &err);
        ASSERT_GE(fd, 0) << err;
        if (i % 2 == 1)
            ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL),
                      0);
        else
            ::shutdown(fd, SHUT_WR);
        FrameConn peer(fd);
        WireFrame f;
        ASSERT_EQ(peer.recvFrame(&f, 5000),
                  FrameConn::RecvStatus::Closed);
    }
    for (int i = 0; i < 100 && ClusterWorkerTestPeer::connections(*w0) > 0;
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_LE(ClusterWorkerTestPeer::connections(*w0), 1u);
    EXPECT_LE(openFdCount(), fds_before);

    // It keeps serving a router afterwards.
    RouterOptions ropts;
    ropts.workers = {w0->endpoint()};
    Router router(ropts);
    ASSERT_TRUE(router.start(&err)) << err;
    const std::vector<double> x(router.inSize(), 1.0);
    const ClusterTicket t = router.submit(x.data());
    ASSERT_TRUE(t.valid());
    EXPECT_EQ(router.wait(t), ClusterStatus::Done);
    router.stop();
    w0->stop();
}

TEST_F(ClusterTest, WideFramesFromManyClientsNeverStallTheRouter)
{
    // 32 KiB frames each way, so a few fill a socket's buffers, and
    // many more closed-loop clients than the worker's ring of owed
    // responses (8 x 2 + 1). The worker stops reading while its ring
    // is full and blocks while its responses go unread, so the router
    // must keep reading responses while its own sends block; if not,
    // both sides wait out their I/O timeouts and a live replica dies.
    TtLayerConfig cfg;
    cfg.m = {64, 64};
    cfg.n = {64, 64};
    cfg.r = {1, 2, 1};
    Rng rng(5);
    const std::string wide = dir_ + "/wide.tie";
    io::saveTieModel(TtMatrix::random(cfg, rng), wide);

    ClusterWorkerOptions opts;
    opts.listen.kind = Endpoint::Kind::Unix;
    opts.listen.path = dir_ + "/wide.sock";
    opts.server.workers = 2;
    opts.server.max_batch = 8;
    opts.server.queue_capacity = 256;
    opts.io_timeout_ms = 2000;
    ClusterWorker w0(io::TieModel::load(wide), opts);
    std::string err;
    ASSERT_TRUE(w0.start(&err)) << err;
    RouterOptions ropts = quietRouter({w0.endpoint()});
    ropts.io_timeout_ms = 2000;
    Router router(ropts);
    ASSERT_TRUE(router.start(&err)) << err;
    ASSERT_EQ(router.inSize(), 4096u);

    serve::LoadGenOptions lopts;
    lopts.requests = 1200;
    lopts.clients = 48;
    lopts.seed = 29;
    const io::TieModel oracle = io::TieModel::load(wide);
    const std::vector<serve::Oracle> expected{serve::referenceOutputs(
        oracle.layers(), 0, 1, lopts.seed, lopts.requests)};
    const serve::LoadGenReport rep = serve::runLoadGen(
        std::vector<Router *>{&router}, lopts, &expected);

    EXPECT_EQ(rep.completed, lopts.requests);
    EXPECT_EQ(rep.mismatched, 0u);
    // A stall shows as a request that waited out an I/O timeout.
    EXPECT_LT(rep.latency.max, 1e6);
    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.worker_deaths, 0u);
    EXPECT_EQ(stats.redispatched, 0u);
    router.stop();
    w0.stop();
    ::unlink(wide.c_str());
}

TEST_F(ClusterTest, NoLiveReplicaShedsAtSubmitInsteadOfHanging)
{
    auto w0 = makeWorker("w0");
    RouterOptions ropts;
    ropts.workers = {w0->endpoint()};
    ropts.health_period_ms = 50;
    Router router(ropts);
    std::string err;
    ASSERT_TRUE(router.start(&err)) << err;

    w0->stop();
    // Wait for the monitor to declare the replica dead.
    for (int i = 0; i < 100 && router.liveWorkers() > 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(router.liveWorkers(), 0u);

    const std::vector<double> x(router.inSize(), 0.5);
    const ClusterTicket t = router.submit(x.data());
    EXPECT_FALSE(t.valid());
    EXPECT_EQ(router.wait(t), ClusterStatus::Shed);
    EXPECT_GE(router.stats().shed, 1u);
    router.stop();
}

TEST_F(ClusterTest, DrainFinishesAcceptedWorkAndRefusesNew)
{
    auto w0 = makeWorker("w0");
    RouterOptions ropts;
    ropts.workers = {w0->endpoint()};
    Router router(ropts);
    std::string err;
    ASSERT_TRUE(router.start(&err)) << err;

    // Complete a request, then drain, then try another.
    const std::vector<double> x(router.inSize(), 0.25);
    const ClusterTicket t = router.submit(x.data());
    ASSERT_TRUE(t.valid());
    std::vector<double> y;
    ASSERT_EQ(router.wait(t, &y), ClusterStatus::Done);

    router.drainWorkers(/*timeout_ms=*/5000);
    EXPECT_TRUE(w0->draining());
    EXPECT_TRUE(w0->waitDrained(/*timeout_ms=*/5000));

    // A drained replica sheds new work explicitly (single replica:
    // nowhere to redispatch).
    const ClusterTicket t2 = router.submit(x.data());
    EXPECT_EQ(router.wait(t2), ClusterStatus::Shed);

    router.stop();
    w0->stop();
}

TEST_F(ClusterTest, ADrainedReplicaThatExitsIsNotADeath)
{
    // tie_worker exits once drained, so the router reads EOF on the
    // replica's connections: the drain completing, not a death.
    const std::vector<double> x(16, 0.25);
    for (int round = 0; round < 50; ++round) {
        auto w0 = makeWorker("w0");
        RouterOptions ropts;
        ropts.workers = {w0->endpoint()};
        ropts.health_period_ms = 10;
        Router router(ropts);
        std::string err;
        ASSERT_TRUE(router.start(&err)) << err;
        ASSERT_EQ(router.inSize(), x.size());
        for (int i = 0; i < 3; ++i)
            ASSERT_EQ(router.wait(router.submit(x.data())),
                      ClusterStatus::Done);

        router.drainWorkers(/*timeout_ms=*/5000);
        ASSERT_TRUE(w0->waitDrained(/*timeout_ms=*/5000));
        w0->stop();
        for (int i = 0; i < 1000 && router.liveWorkers() > 0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ASSERT_EQ(router.liveWorkers(), 0u) << "round " << round;
        EXPECT_EQ(router.stats().worker_deaths, 0u) << "round " << round;
        router.stop();
    }
}

TEST_F(ClusterTest, RouterRefusesAMismatchedReplicaSet)
{
    // A second artifact with a different interface: the router must
    // refuse to mix it with the first (any-replica-same-bits is
    // meaningless across different models).
    TtLayerConfig cfg;
    cfg.m = {2, 4};
    cfg.n = {4, 4};
    cfg.r = {1, 2, 1};
    Rng rng(9);
    const std::string other_path = dir_ + "/other.tie";
    io::saveTieModel(TtMatrix::random(cfg, rng), other_path);

    auto w0 = makeWorker("w0");
    ClusterWorkerOptions wopts;
    wopts.listen.kind = Endpoint::Kind::Unix;
    wopts.listen.path = dir_ + "/other.sock";
    ClusterWorker other(io::TieModel::load(other_path), wopts);
    std::string err;
    ASSERT_TRUE(other.start(&err)) << err;

    RouterOptions ropts;
    ropts.workers = {w0->endpoint(), other.endpoint()};
    Router router(ropts);
    // start() succeeds (>= 1 good replica) but the mismatched one
    // must be left dead, not folded in.
    ASSERT_TRUE(router.start(&err)) << err;
    EXPECT_EQ(router.liveWorkers(), 1u);
    EXPECT_EQ(router.inSize(), 16u);

    router.stop();
    other.stop();
    w0->stop();
    ::unlink(other_path.c_str());
}

TEST_F(ClusterTest, WorkerSurvivesAnOversizedCrcValidClaim)
{
    auto w0 = makeWorker("w0");
    std::string err;

    // A CRC-valid header claiming 1 MiB: far under the protocol's
    // 1 GiB ceiling, but more than any frame this 16-input model's
    // worker can be sent. The worker drops the connection without
    // sizing a buffer for the claim.
    const int bad = connectTimed(w0->endpoint(), 1000, &err);
    ASSERT_GE(bad, 0) << err;
    const std::vector<uint8_t> evil = forgedSizeClaim(1u << 20);
    ASSERT_TRUE(sendAllTimed(bad, evil.data(), evil.size(), 1000, &err))
        << err;
    FrameConn dropped(bad);
    WireFrame f;
    EXPECT_EQ(dropped.recvFrame(&f, 5000), FrameConn::RecvStatus::Closed);

    // It keeps serving well-formed peers afterwards.
    RouterOptions ropts;
    ropts.workers = {w0->endpoint()};
    Router router(ropts);
    ASSERT_TRUE(router.start(&err)) << err;
    const std::vector<double> x(router.inSize(), 1.0);
    const ClusterTicket t = router.submit(x.data());
    ASSERT_TRUE(t.valid());
    EXPECT_EQ(router.wait(t), ClusterStatus::Done);
    router.stop();
    w0->stop();
    EXPECT_GT(w0->rxBufferPeak(), 0u);
    EXPECT_LE(w0->rxBufferPeak(),
              kWireHeaderSize + inferPayloadSize(router.inSize()));
}

TEST_F(ClusterTest, SteadyStateRequestsStayWithinTheAllocationBudget)
{
    // Router and worker share this process, so the count covers both
    // ends of the wire. Nothing may allocate per request: the frame
    // buffers, decode scratch, response vectors and the worker's ring
    // of owed responses are all reused.
    auto w0 = makeWorker("w0");
    RouterOptions ropts;
    ropts.workers = {w0->endpoint()};
    ropts.health_period_ms = 10; // health probes run through the count
    Router router(ropts);
    std::string err;
    ASSERT_TRUE(router.start(&err)) << err;

    const std::vector<double> x =
        serve::makeRequestInput(5, 0, router.inSize());
    std::vector<double> y;
    auto serveOne = [&] {
        const ClusterTicket t = router.submit(x.data());
        ASSERT_TRUE(t.valid());
        ASSERT_EQ(router.wait(t, &y), ClusterStatus::Done);
    };
    for (int i = 0; i < 50; ++i)
        serveOne();
    // The first health probe sizes both ends' health-connection
    // buffers, once per connection; let the monitor make it first.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    constexpr int kRequests = 200;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < kRequests; ++i)
        serveOne();
    g_count_allocs.store(false);
    const uint64_t allocs = g_alloc_count.load();
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations over " << kRequests
        << " steady-state requests";

    router.stop();
    w0->stop();
}

TEST_F(ClusterTest, WorkerSurvivesACorruptClient)
{
    auto w0 = makeWorker("w0");
    std::string err;

    // A client that speaks garbage gets dropped; the worker keeps
    // serving well-formed peers afterwards.
    const int bad = connectTimed(w0->endpoint(), 1000, &err);
    ASSERT_GE(bad, 0) << err;
    const char garbage[] = "GET / HTTP/1.0\r\n\r\n";
    ASSERT_GT(::send(bad, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
    ::close(bad);

    RouterOptions ropts;
    ropts.workers = {w0->endpoint()};
    Router router(ropts);
    ASSERT_TRUE(router.start(&err)) << err;
    const std::vector<double> x(router.inSize(), 1.0);
    const ClusterTicket t = router.submit(x.data());
    ASSERT_TRUE(t.valid());
    EXPECT_EQ(router.wait(t), ClusterStatus::Done);
    router.stop();
    w0->stop();
}

} // namespace
} // namespace cluster
} // namespace tie
