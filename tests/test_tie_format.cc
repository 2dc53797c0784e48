/**
 * @file
 * Tests for the .tie model artifact (src/io/tie_format.*): byte-level
 * header layout, f64/fxp/multi-layer round-trip bit-identity, the
 * exhaustive truncation/corruption matrix (every prefix rejected,
 * every single-bit flip rejected), mmap-backed zero-copy inference
 * that is bit-identical and steady-state allocation-free, non-finite
 * weights refused by the loader and the C FFI, and the fatal
 * load()/parse() wrappers. The TtIo suite pins the single-matrix
 * contract: one TtMatrix saved as a one-layer .tie comes back
 * losslessly, and every malformed stream is fatal.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>

#include "io/crc32.hh"
#include "io/tie_format.hh"
#include "tie_c.h"
#include "tt/infer_session.hh"
#include "tt/tt_infer.hh"
#include "tt/tt_matrix.hh"

// ---------------------------------------------------------------------
// Global allocation hook (same pattern as test_infer_session.cc): when
// counting is enabled, every operator new bumps a counter, so tests
// can assert zero-allocation around steady-state regions.
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

namespace tie {
namespace {

using io::TieLayerSpec;
using io::TieModel;

TtMatrix
sampleLayer(uint64_t seed)
{
    Rng rng(seed);
    TtLayerConfig cfg;
    cfg.m = {3, 2, 4};
    cfg.n = {2, 4, 3};
    cfg.r = {1, 3, 2, 1};
    return TtMatrix::random(cfg, rng);
}

/** A 2-layer chain with matching interfaces (24 -> 24 -> 36). */
std::vector<TtMatrix>
sampleChain(uint64_t seed)
{
    Rng rng(seed);
    std::vector<TtMatrix> chain;
    chain.push_back(sampleLayer(seed));
    TtLayerConfig cfg2;
    cfg2.m = {6, 6};
    cfg2.n = {4, 6}; // inSize 24 == chain[0].outSize()
    cfg2.r = {1, 2, 1};
    chain.push_back(TtMatrix::random(cfg2, rng));
    return chain;
}

std::vector<uint8_t>
image(const std::vector<TtMatrix> &chain, bool fxp = false)
{
    std::vector<TtMatrixFxp> quant;
    if (fxp) {
        quant.reserve(chain.size());
        for (const TtMatrix &tt : chain)
            quant.push_back(
                TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8}));
    }
    std::vector<TieLayerSpec> specs;
    specs.reserve(chain.size());
    for (size_t i = 0; i < chain.size(); ++i)
        specs.push_back(fxp
                            ? io::makeLayerSpec(chain[i], quant[i])
                            : io::makeLayerSpec(chain[i]));
    return io::serializeTieModel(specs);
}

// ---------------------------------------------------------------------
// CRC-32 known answers. Every other CRC check in the suite compares
// io::crc32 with itself, so these pin its values independently: the
// standard check value and a bit-at-a-time reference.
// ---------------------------------------------------------------------

/** Bit-serial CRC-32 (reflected 0xEDB88320, init/xorout ~0). */
uint32_t
referenceCrc32(const uint8_t *p, size_t n)
{
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    return c ^ 0xFFFFFFFFu;
}

/** Deterministic non-trivial bytes. */
std::vector<uint8_t>
crcInput(size_t n)
{
    std::vector<uint8_t> b(n);
    uint32_t s = 0x9E3779B9u;
    for (uint8_t &v : b) {
        s = s * 1664525u + 1013904223u;
        v = static_cast<uint8_t>(s >> 24);
    }
    return b;
}

TEST(Crc32, KnownAnswers)
{
    EXPECT_EQ(io::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(io::crc32("", 0), 0u);
    EXPECT_EQ(io::crc32(nullptr, 0, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32, MatchesBitSerialReferenceAtEveryLengthAndAlignment)
{
    const std::vector<uint8_t> buf = crcInput(1024 + 8);
    for (size_t off = 0; off < 8; ++off)
        for (size_t len = 0; len <= 1024; ++len)
            ASSERT_EQ(io::crc32(buf.data() + off, len),
                      referenceCrc32(buf.data() + off, len))
                << "offset " << off << " length " << len;
}

TEST(Crc32, ChainedCallsEqualOneShotAtEverySplit)
{
    const std::vector<uint8_t> buf = crcInput(300);
    const uint32_t whole = io::crc32(buf.data(), buf.size());
    EXPECT_EQ(whole, referenceCrc32(buf.data(), buf.size()));
    for (size_t k = 0; k <= buf.size(); ++k)
        ASSERT_EQ(io::crc32(buf.data() + k, buf.size() - k,
                            io::crc32(buf.data(), k)),
                  whole)
            << "split at " << k;
}

// ---------------------------------------------------------------------
// Byte-level layout: the documented header, byte for byte.
// ---------------------------------------------------------------------

TEST(TieFormat, HeaderLayoutIsExactlyAsDocumented)
{
    const std::vector<uint8_t> img = image({sampleLayer(1)});
    ASSERT_GE(img.size(), io::kTieHeaderSize);

    EXPECT_EQ(0, std::memcmp(img.data(), io::kTieMagic, 8));

    auto u32 = [&](size_t off) {
        uint32_t v;
        std::memcpy(&v, img.data() + off, 4);
        return v;
    };
    auto u64 = [&](size_t off) {
        uint64_t v;
        std::memcpy(&v, img.data() + off, 8);
        return v;
    };
    EXPECT_EQ(u32(8), io::kTieByteOrder);
    EXPECT_EQ(u32(12), io::kTieVersion);
    EXPECT_EQ(u64(16), img.size());
    const uint64_t n_sections = u64(24);
    EXPECT_EQ(n_sections, 4u); // ModelMeta, Graph, LayerConfig, CoresF64
    EXPECT_EQ(u64(32), io::kTieHeaderSize); // table right after header
    EXPECT_EQ(u32(40), io::crc32(img.data(), 40));
    for (size_t i = 44; i < io::kTieHeaderSize; ++i)
        EXPECT_EQ(img[i], 0u) << "reserved byte " << i;

    // Every section entry: 64-byte-aligned payload, valid CRC.
    for (uint64_t s = 0; s < n_sections; ++s) {
        const size_t e =
            io::kTieHeaderSize + s * io::kTieSectionEntrySize;
        const uint64_t off = u64(e + 8);
        const uint64_t sz = u64(e + 16);
        EXPECT_EQ(off % io::kTieAlign, 0u);
        ASSERT_LE(off + sz, img.size());
        EXPECT_EQ(u32(e + 24), io::crc32(img.data() + off, sz));
        EXPECT_EQ(u32(e + 28), 0u); // reserved
    }
}

TEST(TieFormat, SerializationIsDeterministic)
{
    EXPECT_EQ(image(sampleChain(3), true), image(sampleChain(3), true));
}

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

TEST(TieFormat, F64RoundTripIsBitIdentical)
{
    TtMatrix tt = sampleLayer(2);
    TieModel m = TieModel::parse(image({tt}));
    ASSERT_TRUE(m.valid());
    EXPECT_EQ(m.layerCount(), 1u);
    EXPECT_FALSE(m.hasFxp());
    EXPECT_FALSE(m.mapped());
    EXPECT_EQ(m.config(0), tt.config());

    TtMatrix back = m.toTtMatrix(0);
    for (size_t h = 1; h <= tt.d(); ++h)
        EXPECT_EQ(back.core(h).unfolded(), tt.core(h).unfolded());
}

TEST(TieFormat, FxpRoundTripPreservesCoresAndFormats)
{
    TtMatrix tt = sampleLayer(4);
    // Non-default formats so defaults can't mask a dropped field.
    TtMatrixFxp q = TtMatrixFxp::quantizeAuto(tt, FxpFormat{12, 6}, 5);
    TieModel m = TieModel::parse(
        io::serializeTieModel({io::makeLayerSpec(tt, q)}));
    ASSERT_TRUE(m.hasFxp());

    TtMatrixFxp back = m.toTtMatrixFxp(0);
    EXPECT_EQ(back.config, q.config);
    ASSERT_EQ(back.cores.size(), q.cores.size());
    for (size_t i = 0; i < q.cores.size(); ++i)
        EXPECT_EQ(back.cores[i], q.cores[i]);
    ASSERT_EQ(back.stage_fmt.size(), q.stage_fmt.size());
    for (size_t i = 0; i < q.stage_fmt.size(); ++i) {
        const MacFormat &a = back.stage_fmt[i];
        const MacFormat &b = q.stage_fmt[i];
        EXPECT_EQ(a.weight.total_bits, b.weight.total_bits);
        EXPECT_EQ(a.weight.frac_bits, b.weight.frac_bits);
        EXPECT_EQ(a.act_in.total_bits, b.act_in.total_bits);
        EXPECT_EQ(a.act_in.frac_bits, b.act_in.frac_bits);
        EXPECT_EQ(a.acc_bits, b.acc_bits);
        EXPECT_EQ(a.product_shift, b.product_shift);
        EXPECT_EQ(a.act_out.total_bits, b.act_out.total_bits);
        EXPECT_EQ(a.act_out.frac_bits, b.act_out.frac_bits);
    }
}

TEST(TieFormat, MultiLayerRoundTripAndChainInference)
{
    const std::vector<TtMatrix> chain = sampleChain(5);
    TieModel m = TieModel::parse(image(chain, true));
    ASSERT_EQ(m.layerCount(), 2u);
    EXPECT_EQ(m.inSize(), chain.front().config().inSize());
    EXPECT_EQ(m.outSize(), chain.back().config().outSize());

    // Chain inference through artifact views == through the owned
    // matrices, bit for bit.
    Rng rng(6);
    const size_t n_in = m.inSize();
    std::vector<double> x(n_in);
    for (auto &v : x)
        v = rng.normal();

    std::vector<double> y_owned, y_art, cur = x, nxt;
    for (const TtMatrix &tt : chain) {
        InferSessionD s = makeSession(tt);
        nxt.assign(tt.config().outSize(), 0.0);
        s.runPtr(cur.data(), 1, nxt.data());
        cur = nxt;
    }
    y_owned = cur;

    cur = x;
    for (size_t i = 0; i < m.layerCount(); ++i) {
        InferSessionD s(m.layer(i));
        nxt.assign(m.config(i).outSize(), 0.0);
        s.runPtr(cur.data(), 1, nxt.data());
        cur = nxt;
    }
    y_art = cur;

    ASSERT_EQ(y_owned.size(), y_art.size());
    for (size_t i = 0; i < y_owned.size(); ++i)
        EXPECT_EQ(y_owned[i], y_art[i]) << "output " << i;
}

TEST(TieFormat, FileRoundTripIsMmapped)
{
    const std::string path = "/tmp/tie_fmt_roundtrip.tie";
    TtMatrix tt = sampleLayer(7);
    io::saveTieModel(tt, path);

    TieModel m = TieModel::load(path);
    EXPECT_TRUE(m.mapped());
    EXPECT_EQ(m.path(), path);
    TtMatrix back = m.toTtMatrix(0);
    for (size_t h = 1; h <= tt.d(); ++h)
        EXPECT_EQ(back.core(h).unfolded(), tt.core(h).unfolded());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Corruption matrix: no prefix and no single-bit flip may survive.
// ---------------------------------------------------------------------

TEST(TieFormat, EveryTruncationIsRejected)
{
    const std::vector<uint8_t> img = image(sampleChain(8), true);
    TieModel m;
    std::string err;
    for (size_t cut = 0; cut < img.size(); ++cut) {
        std::vector<uint8_t> prefix(img.begin(), img.begin() + cut);
        EXPECT_FALSE(TieModel::tryParse(std::move(prefix), &m, &err))
            << "prefix of " << cut << " bytes parsed";
        EXPECT_FALSE(err.empty());
    }
}

TEST(TieFormat, EverySingleBitFlipIsRejected)
{
    const std::vector<uint8_t> img = image(sampleChain(9), true);
    TieModel m;
    std::string err;
    for (size_t byte = 0; byte < img.size(); ++byte) {
        for (int bit = 0; bit < 8; bit += 3) { // bits 0, 3, 6
            std::vector<uint8_t> bad = img;
            bad[byte] ^= static_cast<uint8_t>(1u << bit);
            EXPECT_FALSE(TieModel::tryParse(std::move(bad), &m, &err))
                << "flip of bit " << bit << " in byte " << byte
                << " parsed";
        }
    }
}

TEST(TieFormat, TrailingGarbageIsRejected)
{
    std::vector<uint8_t> img = image({sampleLayer(10)});
    img.push_back(0x5a);
    TieModel m;
    std::string err;
    EXPECT_FALSE(TieModel::tryParse(std::move(img), &m, &err));
    EXPECT_NE(err.find("trailing garbage"), std::string::npos) << err;
}

TEST(TieFormat, DiagnosticsNameTheFailure)
{
    const std::vector<uint8_t> img = image({sampleLayer(11)});
    TieModel m;
    std::string err;

    std::vector<uint8_t> bad = img;
    bad[0] = 'X'; // magic
    EXPECT_FALSE(TieModel::tryParse(std::move(bad), &m, &err));
    EXPECT_NE(err.find("bad magic"), std::string::npos) << err;

    bad = img; // byte-swapped sentinel
    const uint32_t swapped = 0x04030201u;
    std::memcpy(bad.data() + 8, &swapped, 4);
    EXPECT_FALSE(TieModel::tryParse(std::move(bad), &m, &err));
    EXPECT_NE(err.find("byte-order"), std::string::npos) << err;

    bad = img; // future version, header CRC fixed up to isolate it
    const uint32_t v2 = io::kTieVersion + 1;
    std::memcpy(bad.data() + 12, &v2, 4);
    const uint32_t crc = io::crc32(bad.data(), 40);
    std::memcpy(bad.data() + 40, &crc, 4);
    EXPECT_FALSE(TieModel::tryParse(std::move(bad), &m, &err));
    EXPECT_NE(err.find("unsupported .tie version"), std::string::npos)
        << err;

    bad = img; // payload corruption -> per-section checksum
    bad.back() ^= 0xff;
    EXPECT_FALSE(TieModel::tryParse(std::move(bad), &m, &err));
    EXPECT_NE(err.find("checksum mismatch"), std::string::npos) << err;
}

TEST(TieFormat, HostileSectionTableOffsetCannotWrapBoundsCheck)
{
    // A crafted artifact (header CRC recomputed, as any attacker can)
    // with table_off near 2^64: the additive bounds check
    // `table_off + n_sections * entry_size > size` would wrap to a
    // tiny sum and pass, sending the entry loop out of bounds. The
    // loader must reject every wrap-prone offset cleanly.
    const std::vector<uint8_t> img = image({sampleLayer(15)});
    TieModel m;
    std::string err;
    for (uint64_t off : {~uint64_t(0) - 31, // +1 entry wraps to 0
                         ~uint64_t(0), ~uint64_t(0) - 4096,
                         uint64_t(1) << 63}) {
        std::vector<uint8_t> bad = img;
        std::memcpy(bad.data() + 32, &off, 8);
        const uint32_t crc = io::crc32(bad.data(), 40);
        std::memcpy(bad.data() + 40, &crc, 4);
        EXPECT_FALSE(TieModel::tryParse(std::move(bad), &m, &err))
            << "table_off " << off << " parsed";
        EXPECT_NE(err.find("section table out of bounds"),
                  std::string::npos)
            << err;
    }
}

TEST(TieFormat, ProductShiftPastTheInt32BoundIsRejected)
{
    // The serializer writes whatever the matrix holds, so this artifact
    // carries valid CRCs; at product_shift 31 the MAC chain's rounded
    // product w * x + 2^30 overflows int32, so the loader must refuse it.
    TtMatrix tt = sampleLayer(17);
    TtMatrixFxp q = TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});
    q.stage_fmt[1].product_shift = kMaxProductShift + 1;
    TieModel m;
    std::string err;
    EXPECT_FALSE(TieModel::tryParse(
        io::serializeTieModel({io::makeLayerSpec(tt, q)}), &m, &err));
    EXPECT_NE(err.find("product_shift"), std::string::npos) << err;

    q.stage_fmt[1].product_shift = kMaxProductShift;
    ASSERT_TRUE(TieModel::tryParse(
        io::serializeTieModel({io::makeLayerSpec(tt, q)}), &m, &err))
        << err;
    EXPECT_EQ(m.toTtMatrixFxp(0).stage_fmt[1].product_shift,
              kMaxProductShift);
}

TEST(TieFormat, BrokenStageFormatChainIsRejected)
{
    // Every format is in range, so only the chain check can catch that
    // stage 2's act_out no longer feeds stage 1's act_in; a session
    // over this twin would die, so the loader must refuse the file.
    TtMatrix tt = sampleLayer(20);
    TtMatrixFxp q = TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});
    const TtMatrixFxp good = q;
    q.stage_fmt[1].act_out.frac_bits += 1;
    TieModel m;
    std::string err;
    EXPECT_FALSE(TieModel::tryParse(
        io::serializeTieModel({io::makeLayerSpec(tt, q)}), &m, &err));
    EXPECT_FALSE(m.valid());
    EXPECT_NE(err.find("layer 0: stage 2 act_out format"), std::string::npos)
        << err;

    ASSERT_TRUE(TieModel::tryParse(
        io::serializeTieModel({io::makeLayerSpec(tt, good)}), &m, &err))
        << err;
    EXPECT_EQ(m.toTtMatrixFxp(0).stage_fmt[1].act_out.frac_bits,
              good.stage_fmt[1].act_out.frac_bits);
}

TEST(TieFormat, NonFiniteCoreIsRejected)
{
    // The writer does not check values, so the artifact carries valid
    // CRCs; the loader must still refuse to serve a NaN weight.
    std::vector<TtMatrix> chain = sampleChain(18);
    chain[1].core(2).unfolded()(0, 1) =
        std::numeric_limits<double>::quiet_NaN();
    TieModel m;
    std::string err;
    EXPECT_FALSE(TieModel::tryParse(image(chain), &m, &err));
    EXPECT_FALSE(m.valid());
    EXPECT_NE(err.find("layer 1: CoresF64"), std::string::npos) << err;
    EXPECT_NE(err.find("non-finite"), std::string::npos) << err;
}

TEST(TieFormat, InfiniteCoreIsRejected)
{
    const std::string path = "/tmp/tie_fmt_inf.tie";
    TtMatrix tt = sampleLayer(19);
    tt.core(1).unfolded()(0, 0) =
        -std::numeric_limits<double>::infinity();
    io::saveTieModel(tt, path);
    TieModel m;
    std::string err;
    EXPECT_FALSE(TieModel::tryLoad(path, &m, &err));
    EXPECT_FALSE(m.valid());
    EXPECT_NE(err.find("non-finite"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(TieFormat, CApiLoadRefusesNonFiniteCores)
{
    const std::string path = "/tmp/tie_fmt_capi_nan.tie";
    TtMatrix tt = sampleLayer(20);
    tt.core(3).unfolded()(1, 0) =
        std::numeric_limits<double>::quiet_NaN();
    io::saveTieModel(tt, path);
    tie_model *model = nullptr;
    EXPECT_EQ(tie_model_load(path.c_str(), &model), TIE_ERR_IO);
    EXPECT_EQ(model, nullptr);
    EXPECT_NE(std::string(tie_last_error()).find("non-finite"),
              std::string::npos)
        << tie_last_error();
    std::remove(path.c_str());
}

TEST(TieFormat, SaveRejectsMoreLayersThanTheReaderAccepts)
{
    // The reader caps n_layers at 65536; a save beyond that must fail
    // instead of producing an artifact its own loader refuses.
    TtMatrix a = sampleLayer(16); // 24 -> 24, chains with itself
    const std::vector<TieLayerSpec> specs((size_t(1) << 16) + 1,
                                          io::makeLayerSpec(a));
    EXPECT_EXIT(io::serializeTieModel(specs),
                ::testing::ExitedWithCode(1), "at most 65536 layers");
}

TEST(TieFormat, FatalWrappersExitCleanly)
{
    EXPECT_EXIT(TieModel::load("/nonexistent/dir/x.tie"),
                ::testing::ExitedWithCode(1), "cannot open");
    std::vector<uint8_t> junk(128, 0x77);
    EXPECT_EXIT(TieModel::parse(std::move(junk)),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(TieFormat, SaveRejectsBrokenChains)
{
    TtMatrix a = sampleLayer(12); // 24 -> 24
    Rng rng(13);
    TtMatrix b =
        TtMatrix::random(TtLayerConfig::withRank({5}, {5}, 1), rng);
    EXPECT_EXIT(io::serializeTieModel(
                    {io::makeLayerSpec(a), io::makeLayerSpec(b)}),
                ::testing::ExitedWithCode(1), "consumes");
}

// ---------------------------------------------------------------------
// Zero-copy serving off the mapping
// ---------------------------------------------------------------------

TEST(TieFormat, MmapSessionIsBitIdenticalAndAllocationFree)
{
    const std::string path = "/tmp/tie_fmt_zerocopy.tie";
    TtMatrix tt = sampleLayer(14);
    io::saveTieModel(tt, path);
    TieModel m = TieModel::load(path);
    ASSERT_TRUE(m.mapped());

    const size_t n_in = m.inSize();
    const size_t n_out = m.outSize();
    const size_t batch = 4;

    InferSessionD owned = makeSession(tt);
    InferSessionD mapped(m.layer(0));

    Rng rng(15);
    std::vector<double> x(n_in * batch);
    for (auto &v : x)
        v = rng.normal();
    std::vector<double> y_owned(n_out * batch), y_map(n_out * batch);

    // Warm-up at the target batch (twice, like
    // test_infer_session.cc: arena/tables on the first run, lazy
    // registry/pool state on the second); afterwards the steady
    // state must not allocate, mmap-backed weights included.
    mapped.runPtr(x.data(), batch, y_map.data());
    mapped.runPtr(x.data(), batch, y_map.data());

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int iter = 0; iter < 16; ++iter)
        mapped.runPtr(x.data(), batch, y_map.data());
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "steady-state inference over a mapped artifact allocated";

    owned.runPtr(x.data(), batch, y_owned.data());
    for (size_t i = 0; i < y_owned.size(); ++i)
        EXPECT_EQ(y_owned[i], y_map[i]) << "output " << i;

    std::remove(path.c_str());
}

TEST(TieFormat, ViewsSurviveTheHandleViaSharedRep)
{
    const std::string path = "/tmp/tie_fmt_shared.tie";
    TtMatrix tt = sampleLayer(16);
    io::saveTieModel(tt, path);

    TieModel keep;
    {
        TieModel m = TieModel::load(path);
        keep = m; // shared rep: the mapping outlives `m`
    }
    std::remove(path.c_str()); // and the directory entry

    TtMatrix back = keep.toTtMatrix(0);
    for (size_t h = 1; h <= tt.d(); ++h)
        EXPECT_EQ(back.core(h).unfolded(), tt.core(h).unfolded());
}

// ---------------------------------------------------------------------
// Single-matrix I/O: a TtMatrix saved alone is a one-layer .tie, and
// the fatal load()/parse() wrappers refuse every malformed stream.
// ---------------------------------------------------------------------

/** One matrix through the in-memory image and back. */
TtMatrix
reparse(const TtMatrix &tt)
{
    return TieModel::parse(image({tt})).toTtMatrix(0);
}

TEST(TtIo, StreamRoundTripIsLossless)
{
    TtMatrix tt = sampleLayer(1);
    TtMatrix back = reparse(tt);

    EXPECT_EQ(back.config(), tt.config());
    for (size_t h = 1; h <= tt.d(); ++h)
        EXPECT_EQ(back.core(h).unfolded(), tt.core(h).unfolded());
}

TEST(TtIo, FileRoundTrip)
{
    TtMatrix tt = sampleLayer(2);
    const std::string path = "/tmp/tie_test_model.tie";
    io::saveTieModel(tt, path);
    TtMatrix back = TieModel::load(path).toTtMatrix(0);
    EXPECT_LT(maxAbsDiff(back.toDense(), tt.toDense()), 0.0 + 1e-15);
    std::remove(path.c_str());
}

TEST(TtIo, BadMagicIsFatal)
{
    // A header-sized stream of junk words, so only the magic fails.
    std::vector<uint8_t> junk(io::kTieHeaderSize);
    const uint64_t word = 0xdeadbeef;
    for (size_t off = 0; off < junk.size(); off += sizeof(word))
        std::memcpy(junk.data() + off, &word, sizeof(word));
    EXPECT_EXIT(TieModel::parse(std::move(junk)),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(TtIo, TruncatedStreamIsFatal)
{
    std::vector<uint8_t> img = image({sampleLayer(3)});
    img.resize(img.size() / 2);
    EXPECT_EXIT(TieModel::parse(std::move(img)),
                ::testing::ExitedWithCode(1), "truncated");
}

TEST(TtIo, TrailingGarbageIsFatal)
{
    std::vector<uint8_t> img = image({sampleLayer(7)});
    for (char c : std::string("tail")) // corrupt tail after the model
        img.push_back(uint8_t(c));
    EXPECT_EXIT(TieModel::parse(std::move(img)),
                ::testing::ExitedWithCode(1), "trailing garbage");
}

TEST(TtIo, ConcatenatedModelsAreFatal)
{
    // Two models in one image: loading the first silently would hand
    // back half the artifact. The header's file size owns the image.
    std::vector<uint8_t> img = image({sampleLayer(8)});
    const std::vector<uint8_t> second = image({sampleLayer(9)});
    img.insert(img.end(), second.begin(), second.end());
    EXPECT_EXIT(TieModel::parse(std::move(img)),
                ::testing::ExitedWithCode(1), "trailing garbage");
}

TEST(TtIo, MissingFileIsFatal)
{
    EXPECT_EXIT(TieModel::load("/nonexistent/dir/x.tie"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TtIo, RoundTripPreservesInference)
{
    TtMatrix tt = sampleLayer(4);
    TtMatrix back = reparse(tt);

    Rng rng(5);
    std::vector<double> x(tt.config().inSize());
    for (auto &v : x)
        v = rng.normal();
    auto y1 = compactInferVec(tt, x);
    auto y2 = compactInferVec(back, x);
    for (size_t i = 0; i < y1.size(); ++i)
        EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

} // namespace
} // namespace tie
