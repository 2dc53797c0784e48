/**
 * @file
 * Tests for serve::ModelRegistry: publish/infer against bit-exact
 * references, version bumps, mapped and parsed artifacts, hostile
 * model files refused without a publish, unknown-name handling,
 * unload/ticket-pinning semantics, and the hot-swap
 * guarantee — concurrent swaps under client load lose no accepted
 * request and every completed output matches one published version
 * bit-exactly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "io/tie_format.hh"
#include "serve/load_gen.hh"
#include "serve/model_registry.hh"

namespace tie {
namespace {

using serve::ModelRegistry;
using serve::RegistryTicket;
using serve::RequestStatus;

TtMatrix
sampleModel(uint64_t seed)
{
    Rng rng(seed);
    TtLayerConfig cfg;
    cfg.m = {3, 2, 4};
    cfg.n = {2, 4, 3};
    cfg.r = {1, 3, 2, 1};
    return TtMatrix::random(cfg, rng);
}

/** @p tt as an in-memory one-layer artifact, the form the registry
    serves. */
io::TieModel
asTie(const TtMatrix &tt)
{
    return io::TieModel::parse(
        io::serializeTieModel({io::makeLayerSpec(tt)}));
}

std::vector<std::vector<double>>
refs(const TtMatrix &tt, uint64_t seed, size_t requests)
{
    return serve::referenceOutputs({layerView(tt)}, 0, 1, seed, requests);
}

TEST(ModelRegistry, PublishInferMatchesReferenceBitExactly)
{
    ModelRegistry reg;
    TtMatrix tt = sampleModel(1);
    EXPECT_EQ(reg.publish("m", asTie(tt)), 1u);
    ASSERT_TRUE(reg.has("m"));

    const auto expected = refs(tt, 11, 8);
    for (size_t i = 0; i < expected.size(); ++i) {
        const std::vector<double> x =
            serve::makeRequestInput(11, i, tt.config().inSize());
        RegistryTicket t = reg.submit("m", x);
        ASSERT_TRUE(t.valid());
        EXPECT_EQ(t.version(), 1u);
        std::vector<double> y;
        ASSERT_EQ(reg.wait(t, &y), RequestStatus::Done);
        EXPECT_EQ(y, expected[i]) << "request " << i;
    }
}

TEST(ModelRegistry, InfoListAndVersionBump)
{
    ModelRegistry reg;
    TtMatrix tt = sampleModel(2);
    EXPECT_EQ(reg.publish("a", asTie(tt)), 1u);
    EXPECT_EQ(reg.publish("b", asTie(tt)), 1u);
    EXPECT_EQ(reg.publish("a", asTie(tt)), 2u); // hot-swap bumps
    EXPECT_EQ(reg.publish("a", asTie(tt)), 3u);

    serve::ModelInfo mi = reg.info("a");
    EXPECT_EQ(mi.version, 3u);
    EXPECT_EQ(mi.layers, 1u);
    EXPECT_EQ(mi.in_size, tt.config().inSize());
    EXPECT_EQ(mi.out_size, tt.config().outSize());

    const std::vector<serve::ModelInfo> all = reg.list();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].name, "a");
    EXPECT_EQ(all[1].name, "b");
}

TEST(ModelRegistry, ArtifactBackedEntryServesIdentically)
{
    const std::string path = "/tmp/tie_registry_model.tie";
    TtMatrix tt = sampleModel(3);
    io::saveTieModel(tt, path);

    ModelRegistry reg;
    reg.publish("parsed", asTie(tt));
    reg.publish("mapped", io::TieModel::load(path));
    std::remove(path.c_str()); // the entry keeps the mapping alive

    const auto expected = refs(tt, 21, 4);
    for (size_t i = 0; i < expected.size(); ++i) {
        const std::vector<double> x =
            serve::makeRequestInput(21, i, tt.config().inSize());
        std::vector<double> y1, y2;
        RegistryTicket t1 = reg.submit("parsed", x);
        RegistryTicket t2 = reg.submit("mapped", x);
        ASSERT_EQ(reg.wait(t1, &y1), RequestStatus::Done);
        ASSERT_EQ(reg.wait(t2, &y2), RequestStatus::Done);
        EXPECT_EQ(y1, expected[i]);
        EXPECT_EQ(y2, expected[i]);
    }
}

TEST(ModelRegistry, TryPublishFileRefusesHostileFilesAndLives)
{
    // A NaN weight and a file that is no .tie at all: both are load
    // failures reported as false, never a dead serving process.
    const std::string nan_path = "/tmp/tie_registry_nan.tie";
    const std::string junk_path = "/tmp/tie_registry_junk.bin";
    TtMatrix tt = sampleModel(8);
    tt.core(2).unfolded()(0, 1) =
        std::numeric_limits<double>::quiet_NaN();
    io::saveTieModel(tt, nan_path); // the writer does not check values
    std::ofstream(junk_path) << "not a model file";

    ModelRegistry reg;
    for (const std::string &path : {nan_path, junk_path}) {
        uint64_t version = 0;
        std::string err;
        EXPECT_FALSE(reg.tryPublishFile("m", path, &version, &err))
            << path;
        EXPECT_FALSE(err.empty()) << path;
        EXPECT_EQ(version, 0u) << path;
    }
    EXPECT_FALSE(reg.has("m"));
    EXPECT_TRUE(reg.list().empty());
    std::remove(nan_path.c_str());
    std::remove(junk_path.c_str());
}

TEST(ModelRegistry, UnknownNameIsFatalTrySubmitIsNot)
{
    ModelRegistry reg;
    reg.publish("real", asTie(sampleModel(4)));
    EXPECT_FALSE(reg.has("ghost"));
    serve::ModelInfo mi;
    EXPECT_FALSE(reg.tryInfo("ghost", &mi));
    RegistryTicket t;
    std::vector<double> x(sampleModel(4).config().inSize(), 0.0);
    EXPECT_FALSE(reg.trySubmit("ghost", x.data(), 0, &t));
    EXPECT_FALSE(t.valid());
    EXPECT_EXIT(reg.submit("ghost", x), ::testing::ExitedWithCode(1),
                "no model named");
}

TEST(ModelRegistry, SizedTrySubmitRejectsInterfaceMismatch)
{
    // The C FFI path: sizes are validated against the entry actually
    // submitted to (not an earlier lookup's snapshot), so a hot-swap
    // racing the caller can never make the queue over-read the input.
    ModelRegistry reg;
    TtMatrix tt = sampleModel(6);
    reg.publish("m", asTie(tt));
    const size_t n_in = tt.config().inSize();
    const size_t n_out = tt.config().outSize();
    std::vector<double> x(n_in, 0.5);

    RegistryTicket t;
    serve::ModelInfo mi;
    ASSERT_TRUE(reg.trySubmit("m", x.data(), n_in, n_out, 0, &t, &mi));
    EXPECT_EQ(mi.in_size, n_in);
    EXPECT_EQ(mi.out_size, n_out);
    std::vector<double> y;
    ASSERT_EQ(reg.wait(t, &y), RequestStatus::Done);
    EXPECT_EQ(y.size(), n_out);

    // A mismatch rejects without submitting — x is never read — and
    // still fills info with the actual interface for error reporting.
    RegistryTicket t2;
    serve::ModelInfo mi2;
    EXPECT_FALSE(
        reg.trySubmit("m", x.data(), n_in + 1, n_out, 0, &t2, &mi2));
    EXPECT_FALSE(t2.valid());
    EXPECT_EQ(mi2.name, "m");
    EXPECT_EQ(mi2.in_size, n_in);
    EXPECT_FALSE(
        reg.trySubmit("m", x.data(), n_in, n_out + 1, 0, &t2, &mi2));
    EXPECT_FALSE(t2.valid());

    // Unknown name: false with info left default (empty name).
    serve::ModelInfo mi3;
    EXPECT_FALSE(
        reg.trySubmit("ghost", x.data(), n_in, n_out, 0, &t2, &mi3));
    EXPECT_TRUE(mi3.name.empty());
}

TEST(ModelRegistry, UnloadDrainsAndTicketsStayCollectable)
{
    ModelRegistry reg;
    TtMatrix tt = sampleModel(5);
    reg.publish("m", asTie(tt));

    const auto expected = refs(tt, 31, 8);
    std::vector<RegistryTicket> tickets;
    std::vector<std::vector<double>> inputs;
    for (size_t i = 0; i < 8; ++i) {
        inputs.push_back(
            serve::makeRequestInput(31, i, tt.config().inSize()));
        tickets.push_back(reg.submit("m", inputs.back()));
    }
    ASSERT_TRUE(reg.unload("m")); // drains accepted requests
    EXPECT_FALSE(reg.has("m"));
    EXPECT_FALSE(reg.unload("m"));

    for (size_t i = 0; i < tickets.size(); ++i) {
        std::vector<double> y;
        ASSERT_EQ(reg.wait(tickets[i], &y), RequestStatus::Done);
        EXPECT_EQ(y, expected[i]) << "request " << i;
    }
}

TEST(ModelRegistry, HotSwapUnderLoadLosesNoAcceptedRequest)
{
    // Two models with identical shape but different weights, so every
    // completed output identifies which version served it.
    TtMatrix v1 = sampleModel(6);
    TtMatrix v2 = sampleModel(7);
    const size_t n_in = v1.config().inSize();

    const size_t kClients = 4;
    const size_t kPerClient = 64;
    const uint64_t kSeed = 41;
    const size_t total = kClients * kPerClient;

    // References for both versions over the whole request stream.
    const auto ref1 = refs(v1, kSeed, total);
    const auto ref2 = refs(v2, kSeed, total);

    serve::ServerOptions opts;
    opts.workers = 2;
    ModelRegistry reg(opts);
    reg.publish("m", asTie(v1));

    std::atomic<size_t> done{0}, shed{0}, wrong{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (size_t i = 0; i < kPerClient; ++i) {
                const size_t idx = c * kPerClient + i;
                const std::vector<double> x =
                    serve::makeRequestInput(kSeed, idx, n_in);
                RegistryTicket t = reg.submit("m", x);
                std::vector<double> y;
                const RequestStatus st = reg.wait(t, &y);
                if (st == RequestStatus::Done) {
                    done.fetch_add(1);
                    if (y != ref1[idx] && y != ref2[idx])
                        wrong.fetch_add(1);
                } else {
                    // Rejected at admission (e.g. racing a drain):
                    // shed *before* acceptance, never lost after.
                    shed.fetch_add(1);
                }
            }
        });
    }

    // Hot-swap back and forth while the clients hammer the name.
    for (int swap = 0; swap < 6; ++swap)
        reg.publish("m", asTie(swap % 2 == 0 ? v2 : v1));

    for (std::thread &t : clients)
        t.join();

    EXPECT_EQ(wrong.load(), 0u)
        << "a completed output matched neither published version";
    EXPECT_EQ(done.load() + shed.load(), total);
    EXPECT_EQ(reg.info("m").version, 7u);
    // The swap storm must not starve the clients: the final server
    // accepted everything submitted after the last swap, so the vast
    // majority of requests complete.
    EXPECT_GT(done.load(), 0u);
}

} // namespace
} // namespace tie
