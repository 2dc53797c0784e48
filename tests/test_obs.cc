/**
 * @file
 * Tests for the observability layer: stat-registry semantics under the
 * thread pool, deterministic Chrome-trace output for the simulated
 * timeline, JSON writer/parser round trips, report serializers, and —
 * crucially — that turning observability on changes *nothing* about
 * the simulation itself.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <thread>

#include "arch/stats_io.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/tie_engine.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/metric_direction.hh"
#include "obs/prom_export.hh"
#include "obs/report.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"

namespace tie {
namespace {

using obs::JsonValue;
using obs::JsonWriter;
using obs::parseJson;
using obs::StatRegistry;
using obs::Trace;

/** Every test starts and ends with observability off and state clean. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::setEnabled(false);
        StatRegistry::instance().resetAll();
        Trace::instance().clear();
        Trace::instance().setCategories(true, true);
    }

    void
    TearDown() override
    {
        obs::setEnabled(false);
        StatRegistry::instance().resetAll();
        Trace::instance().clear();
        Trace::instance().setCategories(true, true);
    }
};

// ---------------------------------------------------------------- stats

TEST_F(ObsTest, CounterCountsExactlyOnceUnderParallelFor)
{
    obs::setEnabled(true);
    auto &c = StatRegistry::instance().counter("test.par_counter");
    const size_t ambient = threadCount();
    setThreadCount(4);
    const size_t n = 1000;
    parallelFor(0, n, 7, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            c.add();
    });
    setThreadCount(ambient);
    EXPECT_EQ(c.value(), n);
}

TEST_F(ObsTest, DisabledStatsStayZero)
{
    ASSERT_FALSE(obs::enabled());
    auto &c = StatRegistry::instance().counter("test.off_counter");
    auto &g = StatRegistry::instance().gauge("test.off_gauge");
    auto &d = StatRegistry::instance().distribution("test.off_dist");
    c.add(5);
    g.set(42);
    d.record(1.5);
    {
        obs::ScopedTimer t(d); // must not read the clock or record
    }
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(d.snapshot().count, 0u);
}

TEST_F(ObsTest, DistributionSnapshotAndScopedTimer)
{
    obs::setEnabled(true);
    auto &d = StatRegistry::instance().distribution("test.dist");
    d.record(2.0);
    d.record(8.0);
    d.record(5.0);
    auto s = d.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.sum, 15.0);
    EXPECT_DOUBLE_EQ(s.min, 2.0);
    EXPECT_DOUBLE_EQ(s.max, 8.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);

    auto &t = StatRegistry::instance().distribution("test.timer");
    {
        obs::ScopedTimer timer(t);
    }
    EXPECT_EQ(t.snapshot().count, 1u);
    EXPECT_GE(t.snapshot().min, 0.0);
}

TEST_F(ObsTest, DistributionPercentilesWithinHistogramError)
{
    obs::setEnabled(true);
    auto &d = StatRegistry::instance().distribution("test.pct");
    for (int v = 1; v <= 1000; ++v)
        d.record(static_cast<double>(v));

    // The log-linear histogram guarantees <= 1/(2*8) relative error;
    // allow a little slack for bucket-edge effects.
    const double tol = 0.08;
    EXPECT_NEAR(d.percentile(50), 500.0, 500.0 * tol);
    EXPECT_NEAR(d.percentile(95), 950.0, 950.0 * tol);
    EXPECT_NEAR(d.percentile(99), 990.0, 990.0 * tol);

    // Edges are exact: clamped to the tracked min/max.
    EXPECT_DOUBLE_EQ(d.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 1000.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 1000.0);

    // Percentiles are monotone in p.
    double prev = 0.0;
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
        EXPECT_GE(d.percentile(p), prev) << "p" << p;
        prev = d.percentile(p);
    }
}

TEST_F(ObsTest, DistributionPercentileEdgeCases)
{
    obs::setEnabled(true);
    auto &empty = StatRegistry::instance().distribution("test.pct_e");
    EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0); // no samples

    // A single value answers every percentile exactly.
    auto &one = StatRegistry::instance().distribution("test.pct_1");
    one.record(37.5);
    EXPECT_DOUBLE_EQ(one.percentile(1), 37.5);
    EXPECT_DOUBLE_EQ(one.percentile(50), 37.5);
    EXPECT_DOUBLE_EQ(one.percentile(99), 37.5);

    // Zero and negative samples land in the bottom bucket and the
    // clamp keeps the answer exact for all-equal samples.
    auto &zero = StatRegistry::instance().distribution("test.pct_0");
    zero.record(0.0);
    zero.record(0.0);
    EXPECT_DOUBLE_EQ(zero.percentile(50), 0.0);

    // reset() clears the histogram, not just the summary.
    one.reset();
    EXPECT_DOUBLE_EQ(one.percentile(50), 0.0);
    one.record(2.0);
    EXPECT_DOUBLE_EQ(one.percentile(50), 2.0);
}

TEST_F(ObsTest, DistributionJsonCarriesPercentiles)
{
    obs::setEnabled(true);
    auto &d = StatRegistry::instance().distribution("test.pct_json");
    for (int v = 1; v <= 100; ++v)
        d.record(static_cast<double>(v));
    const std::string json = StatRegistry::instance().toJson();
    std::string err;
    JsonValue doc = parseJson(json, &err);
    ASSERT_EQ(doc.type, JsonValue::Type::Object) << err;
    const JsonValue *dist =
        doc.find("distributions")->find("test.pct_json");
    ASSERT_NE(dist, nullptr);
    const double p50 = dist->num("p50");
    const double p95 = dist->num("p95");
    const double p99 = dist->num("p99");
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, dist->num("max"));
}

TEST_F(ObsTest, RegistryJsonIsSortedAndParses)
{
    obs::setEnabled(true);
    StatRegistry::instance().counter("test.zz").add(1);
    StatRegistry::instance().counter("test.aa").add(2);
    StatRegistry::instance().distribution("test.mm").record(3.0);
    const std::string json = StatRegistry::instance().toJson();

    // Sorted iteration => "test.aa" serialized before "test.zz".
    EXPECT_LT(json.find("test.aa"), json.find("test.zz"));

    std::string err;
    JsonValue doc = parseJson(json, &err);
    ASSERT_EQ(doc.type, JsonValue::Type::Object) << err;
    const JsonValue *counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->u64("test.aa"), 2u);
    EXPECT_EQ(counters->u64("test.zz"), 1u);
    const JsonValue *dists = doc.find("distributions");
    ASSERT_NE(dists, nullptr);
    const JsonValue *mm = dists->find("test.mm");
    ASSERT_NE(mm, nullptr);
    EXPECT_EQ(mm->u64("count"), 1u);
    EXPECT_DOUBLE_EQ(mm->num("sum"), 3.0);

    const std::string csv = StatRegistry::instance().toCsv();
    EXPECT_NE(csv.find("test.aa,counter,2"), std::string::npos);
}

// ----------------------------------------------------------------- json

TEST_F(ObsTest, JsonWriterRoundTripsThroughParser)
{
    JsonWriter w;
    w.beginObject();
    w.field("str", "a \"quoted\"\nline");
    w.field("num", 0.1);
    w.field("neg", int64_t(-7));
    w.field("big", uint64_t(1) << 53);
    w.field("flag", true);
    w.key("arr").beginArray().value(1).value(2.5).endArray();
    w.key("obj").beginObject().field("k", "v").endObject();
    w.endObject();

    std::string err;
    JsonValue doc = parseJson(w.str(), &err);
    ASSERT_EQ(doc.type, JsonValue::Type::Object) << err;
    EXPECT_EQ(doc.find("str")->string, "a \"quoted\"\nline");
    EXPECT_DOUBLE_EQ(doc.num("num"), 0.1);
    EXPECT_DOUBLE_EQ(doc.num("neg"), -7.0);
    EXPECT_EQ(doc.u64("big"), uint64_t(1) << 53);
    EXPECT_TRUE(doc.find("flag")->boolean);
    ASSERT_EQ(doc.find("arr")->array.size(), 2u);
    EXPECT_DOUBLE_EQ(doc.find("arr")->array[1].number, 2.5);
    EXPECT_EQ(doc.find("obj")->find("k")->string, "v");
}

TEST_F(ObsTest, JsonParserRejectsGarbage)
{
    std::string err;
    EXPECT_TRUE(parseJson("{", &err).isNull());
    EXPECT_TRUE(parseJson("[1,2,]", &err).isNull());
    EXPECT_TRUE(parseJson("{} trailing", &err).isNull());
    EXPECT_TRUE(parseJson("", &err).isNull());
    EXPECT_FALSE(parseJson("null", &err).type == JsonValue::Type::Bool);
}

TEST_F(ObsTest, JsonNumberIsShortestRoundTrip)
{
    EXPECT_EQ(obs::jsonNumber(0.1), "0.1");
    EXPECT_EQ(obs::jsonNumber(1.0), "1");
    EXPECT_EQ(obs::jsonNumber(-2.5), "-2.5");
    // Non-finite values have no JSON form.
    EXPECT_EQ(obs::jsonNumber(1.0 / 0.0), "null");
}

// ---------------------------------------------------------------- trace

TtMatrixFxp
smallQuantLayer(uint64_t seed)
{
    TtLayerConfig cfg;
    cfg.m = {3, 2, 4};
    cfg.n = {2, 4, 3};
    cfg.r = {1, 3, 2, 1};
    Rng rng(seed);
    return TtMatrixFxp::quantizeAuto(TtMatrix::random(cfg, rng),
                                     FxpFormat{16, 10}, 6);
}

Matrix<int16_t>
smallQuantInput(uint64_t seed)
{
    Rng rng(seed);
    MatrixF x(24, 1);
    x.setUniform(rng, -1.0, 1.0);
    return quantizeMatrix(x, FxpFormat{16, 10});
}

std::string
traceOneSimLayer()
{
    Trace::instance().clear();
    TieSimulator sim;
    sim.runLayer(smallQuantLayer(7), smallQuantInput(8));
    return Trace::instance().toJson();
}

TEST_F(ObsTest, SimTraceIsByteIdenticalAcrossRunsAndThreadCounts)
{
    obs::setEnabled(true);
    Trace::instance().setCategories(/*sim=*/true, /*host=*/false);

    const size_t ambient = threadCount();
    setThreadCount(1);
    const std::string a = traceOneSimLayer();
    const std::string b = traceOneSimLayer();
    setThreadCount(4);
    const std::string c = traceOneSimLayer();
    setThreadCount(ambient);

    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "sim trace differs across identical runs";
    EXPECT_EQ(a, c) << "sim trace depends on the pool size";

    std::string err;
    JsonValue doc = parseJson(a, &err);
    ASSERT_EQ(doc.type, JsonValue::Type::Object) << err;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type, JsonValue::Type::Array);
    // At least: 1 process meta + 3 track metas + layer + 3 stages.
    EXPECT_GE(events->array.size(), 8u);

    // Stage spans tile the layer span exactly (no gaps on track 1
    // beyond the configured switch overhead, no wall-clock anywhere).
    const JsonValue *layer = nullptr;
    uint64_t stage_cycles = 0;
    size_t stage_count = 0;
    for (const JsonValue &e : events->array) {
        const JsonValue *name = e.find("name");
        if (name == nullptr)
            continue;
        if (name->string == "layer 0")
            layer = &e;
        if (name->string.rfind("stage h=", 0) == 0) {
            stage_cycles += e.u64("dur");
            ++stage_count;
        }
        EXPECT_EQ(e.u64("pid"), 1u) << "host event leaked into sim trace";
    }
    ASSERT_NE(layer, nullptr);
    EXPECT_EQ(stage_count, 3u);
    EXPECT_LE(stage_cycles, layer->u64("dur"));
}

TEST_F(ObsTest, SimCursorAppendsAcrossLayersAndClearResets)
{
    obs::setEnabled(true);
    Trace::instance().setCategories(true, false);
    Trace::instance().clear();
    EXPECT_EQ(Trace::instance().simCursor(), 0u);

    TieSimulator sim;
    TieSimResult r1 = sim.runLayer(smallQuantLayer(7), smallQuantInput(8));
    const uint64_t after_one = Trace::instance().simCursor();
    EXPECT_EQ(after_one, r1.stats.cycles);

    sim.runLayer(smallQuantLayer(7), smallQuantInput(8));
    EXPECT_EQ(Trace::instance().simCursor(), 2 * after_one);

    Trace::instance().clear();
    EXPECT_EQ(Trace::instance().simCursor(), 0u);
    EXPECT_EQ(Trace::instance().simEventCount(), 0u);
}

TEST_F(ObsTest, SimulationIsBitIdenticalWithObservabilityOnOrOff)
{
    // Baseline with observability fully off.
    ASSERT_FALSE(obs::enabled());
    TieSimulator sim;
    const TieSimResult off =
        sim.runLayer(smallQuantLayer(3), smallQuantInput(4));

    // Same run with stats + both trace categories on.
    obs::setEnabled(true);
    Trace::instance().setCategories(true, true);
    const TieSimResult on =
        sim.runLayer(smallQuantLayer(3), smallQuantInput(4));

    EXPECT_EQ(on.stats.cycles, off.stats.cycles);
    EXPECT_EQ(on.stats.mac_ops, off.stats.mac_ops);
    EXPECT_EQ(on.stats.stall_cycles, off.stats.stall_cycles);
    EXPECT_EQ(on.stats.weight_sram_reads, off.stats.weight_sram_reads);
    ASSERT_EQ(on.output.rows(), off.output.rows());
    for (size_t i = 0; i < off.output.rows(); ++i)
        EXPECT_EQ(on.output(i, 0), off.output(i, 0)) << "row " << i;
}

// ------------------------------------------------------------- stats_io

TEST_F(ObsTest, SimStatsJsonRoundTrips)
{
    TieSimulator sim;
    TieSimResult r = sim.runLayer(smallQuantLayer(5), smallQuantInput(6));
    const std::string json = simStatsJson(r.stats);

    std::string err;
    JsonValue doc = parseJson(json, &err);
    ASSERT_EQ(doc.type, JsonValue::Type::Object) << err;

    EXPECT_EQ(doc.u64("cycles"), r.stats.cycles);
    EXPECT_EQ(doc.u64("mac_ops"), r.stats.mac_ops);
    EXPECT_EQ(doc.u64("weight_sram_reads"), r.stats.weight_sram_reads);
    EXPECT_EQ(doc.u64("working_sram_reads"), r.stats.working_sram_reads);
    EXPECT_EQ(doc.u64("working_sram_writes"),
              r.stats.working_sram_writes);
    EXPECT_EQ(doc.u64("reg_writes"), r.stats.reg_writes);
    EXPECT_EQ(doc.u64("stall_cycles"), r.stats.stall_cycles);
    const JsonValue *stages = doc.find("stages");
    ASSERT_NE(stages, nullptr);
    ASSERT_EQ(stages->type, JsonValue::Type::Array);
    ASSERT_EQ(stages->array.size(), r.stats.stages.size());
    ASSERT_FALSE(r.stats.stages.empty());
    for (size_t i = 0; i < r.stats.stages.size(); ++i) {
        const JsonValue &st = stages->array[i];
        const StageStats &want = r.stats.stages[i];
        EXPECT_EQ(st.u64("layer_index"), want.layer_index);
        EXPECT_EQ(st.u64("core_index"), want.core_index);
        EXPECT_EQ(st.u64("cycles"), want.cycles);
        EXPECT_EQ(st.u64("mac_ops"), want.mac_ops);
        EXPECT_EQ(st.u64("stall_cycles"), want.stall_cycles);
        // Each array entry is the stage's own document.
        JsonValue one = parseJson(stageStatsJson(want), &err);
        ASSERT_EQ(one.type, JsonValue::Type::Object) << err;
        EXPECT_EQ(one.u64("cycles"), want.cycles);
    }

    // Serialization is deterministic for equal inputs.
    EXPECT_EQ(json, simStatsJson(r.stats));
}

TEST_F(ObsTest, PowerAndPerfReportsRoundTrip)
{
    PowerReport p;
    p.memory_mw = 12.5;
    p.register_mw = 3.25;
    p.combinational_mw = 7.75;
    p.clock_mw = 1.125;
    std::string err;
    JsonValue pd = parseJson(powerReportJson(p), &err);
    ASSERT_EQ(pd.type, JsonValue::Type::Object) << err;
    EXPECT_DOUBLE_EQ(pd.num("memory_mw"), p.memory_mw);
    EXPECT_DOUBLE_EQ(pd.num("register_mw"), p.register_mw);
    EXPECT_DOUBLE_EQ(pd.num("combinational_mw"), p.combinational_mw);
    EXPECT_DOUBLE_EQ(pd.num("clock_mw"), p.clock_mw);
    EXPECT_DOUBLE_EQ(pd.num("total_mw"), p.totalMw());

    PerfReport r;
    r.latency_us = 1.5;
    r.energy_nj = 250.0;
    r.power_mw = 100.0;
    r.effective_gops = 2000.0;
    r.area_mm2 = 1.74;
    JsonValue rd = parseJson(perfReportJson(r), &err);
    ASSERT_EQ(rd.type, JsonValue::Type::Object) << err;
    EXPECT_DOUBLE_EQ(rd.num("latency_us"), r.latency_us);
    EXPECT_DOUBLE_EQ(rd.num("energy_nj"), r.energy_nj);
    EXPECT_DOUBLE_EQ(rd.num("power_mw"), r.power_mw);
    EXPECT_DOUBLE_EQ(rd.num("effective_gops"), r.effective_gops);
    EXPECT_DOUBLE_EQ(rd.num("area_mm2"), r.area_mm2);
    EXPECT_DOUBLE_EQ(rd.num("gops_per_watt"), r.gopsPerWatt());
    EXPECT_DOUBLE_EQ(rd.num("gops_per_mm2"), r.gopsPerMm2());
}

// --------------------------------------------------- layer attribution

TEST_F(ObsTest, EngineReportCarriesLayerIndices)
{
    Rng rng(2);
    TtLayerConfig cfg = TtLayerConfig::uniform(3, 2, 2, 2);
    TieEngine engine;
    engine.addLayer(TtMatrix::random(cfg, rng));
    engine.addLayer(TtMatrix::random(cfg, rng));

    Matrix<int16_t> x(cfg.inSize(), 1);
    EngineRunReport rep = engine.simulate(x);

    ASSERT_EQ(rep.per_layer.size(), 2u);
    for (size_t i = 0; i < rep.per_layer.size(); ++i) {
        EXPECT_EQ(rep.per_layer[i].layer_index, i);
        for (const StageStats &st : rep.per_layer[i].stats.stages)
            EXPECT_EQ(st.layer_index, i);
    }
    // The totals keep per-stage attribution too.
    bool saw_layer1 = false;
    for (const StageStats &st : rep.stats.stages)
        saw_layer1 |= st.layer_index == 1;
    EXPECT_TRUE(saw_layer1);

    std::string err;
    JsonValue doc = parseJson(engineReportJson(rep), &err);
    ASSERT_EQ(doc.type, JsonValue::Type::Object) << err;
    const JsonValue *layers = doc.find("per_layer");
    ASSERT_NE(layers, nullptr);
    ASSERT_EQ(layers->array.size(), 2u);
    EXPECT_EQ(layers->array[1].u64("layer_index"), 1u);
}

// -------------------------------------------------------------- logging

TEST_F(ObsTest, WarnOnceFiresExactlyOnce)
{
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 3; ++i)
        TIE_WARN_ONCE("only once please");
    const std::string err = ::testing::internal::GetCapturedStderr();
    size_t n = 0;
    for (size_t pos = err.find("only once please");
         pos != std::string::npos;
         pos = err.find("only once please", pos + 1))
        ++n;
    EXPECT_LE(n, 1u); // 0 allowed when TIE_LOG_LEVEL=silent
    if (std::getenv("TIE_LOG_LEVEL") == nullptr) {
        EXPECT_EQ(n, 1u);
    }
}

TEST_F(ObsTest, LogLevelsAreOrdered)
{
    // Whatever TIE_LOG_LEVEL says, enabling Info implies enabling Warn.
    if (logLevelEnabled(LogLevel::Info)) {
        EXPECT_TRUE(logLevelEnabled(LogLevel::Warn));
    }
    EXPECT_TRUE(logLevelEnabled(LogLevel::Silent));
}

// ------------------------------------------------------------- session

TEST_F(ObsTest, SessionStripsFlagsAndWritesFiles)
{
    const std::string dir = ::testing::TempDir();
    const std::string stats = dir + "/obs_session_stats.json";
    const std::string trace = dir + "/obs_session_trace.json";
    const std::string stats_flag = "--stats-json=" + stats;
    const std::string trace_flag = "--trace-out=" + trace;

    const char *argv_in[] = {"prog", stats_flag.c_str(), "positional",
                             trace_flag.c_str(), nullptr};
    char *argv[5];
    for (int i = 0; i < 5; ++i)
        argv[i] = const_cast<char *>(argv_in[i]);
    int argc = 4;

    {
        obs::Session s("unittest", &argc, argv);
        EXPECT_EQ(argc, 2);
        EXPECT_STREQ(argv[1], "positional");
        EXPECT_TRUE(obs::enabled());
        ASSERT_EQ(obs::Session::current(), &s);
        s.setExtra("answer", "42");
        StatRegistry::instance().counter("test.session").add(3);
    } // destructor flushes

    std::string err;
    std::ifstream is(stats);
    ASSERT_TRUE(is.is_open());
    std::string json((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    JsonValue doc = parseJson(json, &err);
    ASSERT_EQ(doc.type, JsonValue::Type::Object) << err;
    EXPECT_EQ(doc.find("name")->string, "unittest");
    EXPECT_DOUBLE_EQ(doc.num("answer"), 42.0);
    const JsonValue *st = doc.find("stats");
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->find("counters")->u64("test.session"), 3u);

    std::ifstream ts(trace);
    ASSERT_TRUE(ts.is_open());
    std::string tjson((std::istreambuf_iterator<char>(ts)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(parseJson(tjson, &err).type, JsonValue::Type::Object)
        << err;

    std::remove(stats.c_str());
    std::remove(trace.c_str());
}

// ------------------------------------------------------ flight recorder

/** Flight-recorder tests leave the recorder stopped and clean. */
class FlightTest : public ObsTest
{
  protected:
    void
    SetUp() override
    {
        ObsTest::SetUp();
        obs::FlightRecorder::instance().stop();
        obs::FlightRecorder::instance().reset();
    }

    void
    TearDown() override
    {
        obs::FlightRecorder::instance().stop();
        obs::FlightRecorder::instance().reset();
        ObsTest::TearDown();
    }

    static obs::FlightEvent
    event(obs::FlightPhase phase, uint64_t t0, uint64_t t1,
          uint64_t trace_id = 0, uint32_t batch_id = 0)
    {
        obs::FlightEvent e;
        e.t0_us = t0;
        e.t1_us = t1;
        e.trace_id = trace_id;
        e.batch_id = batch_id;
        e.phase = static_cast<uint8_t>(phase);
        return e;
    }
};

TEST_F(FlightTest, DisabledRecorderDropsNothingAndRecordsNothing)
{
    auto &fr = obs::FlightRecorder::instance();
    ASSERT_FALSE(obs::FlightRecorder::enabled());
    fr.record(event(obs::FlightPhase::Enqueue, 1, 1, 7));
    EXPECT_EQ(fr.dropped(), 0u);
    EXPECT_EQ(fr.drained(), 0u);
    EXPECT_TRUE(fr.spans().empty());
}

TEST_F(FlightTest, AssemblesSpansFromWorkerOrderedEvents)
{
    obs::setEnabled(true); // phase distributions record only when on
    auto &fr = obs::FlightRecorder::instance();
    obs::FlightRecorder::Options opts;
    opts.drain_period_us = 60'000'000; // drain manually
    opts.emit_trace = true;
    fr.start(opts);

    const uint64_t t1 = obs::FlightRecorder::nextTraceId();
    const uint64_t t2 = obs::FlightRecorder::nextTraceId();
    EXPECT_NE(t1, t2);
    const uint32_t b = obs::FlightRecorder::nextBatchId();

    const size_t serve_before = Trace::instance().serveEventCount();
    fr.record(event(obs::FlightPhase::Enqueue, 100, 100, t1));
    fr.record(event(obs::FlightPhase::Enqueue, 110, 110, t2));
    fr.record(event(obs::FlightPhase::BatchForm, 100, 150, 0, b));
    fr.record(event(obs::FlightPhase::Queue, 100, 150, t1, b));
    fr.record(event(obs::FlightPhase::Queue, 110, 150, t2, b));
    fr.record(event(obs::FlightPhase::Gather, 150, 160, 0, b));
    fr.record(event(obs::FlightPhase::Infer, 160, 260, 0, b));
    fr.record(event(obs::FlightPhase::Scatter, 260, 270, 0, b));
    fr.record(event(obs::FlightPhase::Complete, 270, 280, 0, b));
    fr.drainNow();

    EXPECT_EQ(fr.dropped(), 0u);
    EXPECT_EQ(fr.drained(), 9u);
    const std::vector<obs::FlightSpan> spans = fr.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].trace_id, t1);
    EXPECT_EQ(spans[1].trace_id, t2);
    EXPECT_EQ(spans[0].batch_id, b);
    EXPECT_DOUBLE_EQ(spans[0].queue_us, 50.0);
    EXPECT_DOUBLE_EQ(spans[1].queue_us, 40.0);
    // Batch-phase attribution is shared by every member.
    for (const obs::FlightSpan &s : spans) {
        EXPECT_DOUBLE_EQ(s.gather_us, 10.0);
        EXPECT_DOUBLE_EQ(s.infer_us, 100.0);
        EXPECT_DOUBLE_EQ(s.scatter_us, 10.0);
    }

    // Phase distributions fed: one sample per member per phase.
    auto &reg = StatRegistry::instance();
    EXPECT_EQ(reg.distribution("serve.phase.queue_us")
                  .snapshot().count, 2u);
    EXPECT_EQ(reg.distribution("serve.phase.infer_us")
                  .snapshot().count, 2u);
    EXPECT_EQ(reg.distribution("serve.phase.batch_us")
                  .snapshot().count, 1u);

    // pid-3 serve timeline: batch_form/gather/infer/scatter/complete
    // plus one queue span per member.
    EXPECT_EQ(Trace::instance().serveEventCount() - serve_before, 7u);
    const std::string json = Trace::instance().toJson();
    EXPECT_NE(json.find("\"serve (wall-clock)\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"serve\""), std::string::npos);
    fr.stop();
}

TEST_F(FlightTest, RingOverflowDropsAndCountsWithoutBlocking)
{
    auto &fr = obs::FlightRecorder::instance();
    obs::FlightRecorder::Options opts;
    opts.ring_capacity = 64; // already a power of two
    opts.drain_period_us = 60'000'000;
    fr.start(opts);

    // 100 events into a 64-slot ring with no draining: 36 must drop,
    // and record() must return (never block) every time.
    for (uint64_t i = 0; i < 100; ++i)
        fr.record(event(obs::FlightPhase::Enqueue, i, i, i + 1));
    EXPECT_EQ(fr.dropped(), 36u);
    fr.drainNow();
    EXPECT_EQ(fr.drained(), 64u);
    // Space freed by the drain is reusable; drops stay counted.
    fr.record(event(obs::FlightPhase::Enqueue, 1, 1, 1));
    fr.drainNow();
    EXPECT_EQ(fr.drained(), 65u);
    EXPECT_EQ(fr.dropped(), 36u);
    fr.stop();
}

TEST_F(FlightTest, StopIsIdempotentAndRestartSurvives)
{
    auto &fr = obs::FlightRecorder::instance();
    fr.stop(); // never started: no-op
    fr.start();
    EXPECT_TRUE(obs::FlightRecorder::enabled());
    fr.stop();
    fr.stop();
    EXPECT_FALSE(obs::FlightRecorder::enabled());
    // Restart claims fresh rings; events still flow.
    fr.start();
    const uint32_t b = obs::FlightRecorder::nextBatchId();
    fr.record(event(obs::FlightPhase::BatchForm, 0, 5, 0, b));
    fr.record(event(obs::FlightPhase::Complete, 5, 6, 0, b));
    fr.stop(); // final drain happens here
    EXPECT_GE(fr.drained(), 2u);
}

TEST_F(FlightTest, TraceIdsAreUniqueAcrossThreads)
{
    const size_t kThreads = 4, kPerThread = 1000;
    std::vector<std::vector<uint64_t>> ids(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&ids, t] {
            ids[t].reserve(kPerThread);
            for (size_t i = 0; i < kPerThread; ++i)
                ids[t].push_back(obs::FlightRecorder::nextTraceId());
        });
    for (std::thread &th : threads)
        th.join();
    std::set<uint64_t> unique;
    for (const auto &v : ids)
        unique.insert(v.begin(), v.end());
    EXPECT_EQ(unique.size(), kThreads * kPerThread);
    EXPECT_EQ(unique.count(0), 0u); // 0 is the recorder-off sentinel
}

// --------------------------------------------------- prometheus export

TEST_F(ObsTest, PrometheusNameSanitization)
{
    EXPECT_EQ(obs::promMetricName("serve.phase.infer_us"),
              "tie_serve_phase_infer_us");
    EXPECT_EQ(obs::promMetricName("simd.isa"), "tie_simd_isa");
    EXPECT_EQ(obs::promMetricName("a-b c/d"), "tie_a_b_c_d");
}

TEST_F(ObsTest, PrometheusExpositionCarriesSummarySemantics)
{
    obs::setEnabled(true);
    auto &reg = StatRegistry::instance();
    reg.counter("promtest.requests", "requests served").add(7);
    reg.gauge("promtest.depth", "queue depth").set(-3);
    auto &d = reg.distribution("promtest.lat_us", "latency");
    d.record(2.0);
    d.record(8.0);
    d.record(5.0);

    const std::string text = obs::prometheusText();

    // TYPE lines precede their samples; counter and gauge values.
    EXPECT_NE(text.find("# HELP tie_promtest_requests requests served"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE tie_promtest_requests counter"),
              std::string::npos);
    EXPECT_NE(text.find("tie_promtest_requests 7"), std::string::npos);
    EXPECT_NE(text.find("# TYPE tie_promtest_depth gauge"),
              std::string::npos);
    EXPECT_NE(text.find("tie_promtest_depth -3"), std::string::npos);

    // Summary semantics: quantiles plus _sum (sum of observations)
    // and _count (number of observations).
    EXPECT_NE(text.find("# TYPE tie_promtest_lat_us summary"),
              std::string::npos);
    EXPECT_NE(text.find("tie_promtest_lat_us{quantile=\"0.5\"} "),
              std::string::npos);
    EXPECT_NE(text.find("tie_promtest_lat_us{quantile=\"0.99\"} "),
              std::string::npos);
    EXPECT_NE(text.find("tie_promtest_lat_us_sum 15"),
              std::string::npos);
    EXPECT_NE(text.find("tie_promtest_lat_us_count 3"),
              std::string::npos);

    // Every non-comment line is "name[{labels}] value".
    std::istringstream ss(text);
    std::string line;
    while (std::getline(ss, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        EXPECT_EQ(line.rfind("tie_", 0), 0u) << line;
    }
}

TEST_F(ObsTest, PrometheusExpositionIsStableForFixedValues)
{
    obs::setEnabled(true);
    StatRegistry::instance().counter("promtest.stable").add(1);
    EXPECT_EQ(obs::prometheusText(), obs::prometheusText());
}

TEST(MetricDirection, TokenBasedClassification)
{
    using obs::MetricDirection;
    using obs::metricDirection;
    struct Case
    {
        const char *name;
        MetricDirection want;
    };
    const Case cases[] = {
        // Time-like metrics: lower is better.
        {"real_time", MetricDirection::LowerBetter},
        {"cpu_time", MetricDirection::LowerBetter},
        {"latency_p99_us", MetricDirection::LowerBetter},
        {"queue_wait_p99_us", MetricDirection::LowerBetter},
        {"service_p50_us", MetricDirection::LowerBetter},
        {"serve.phase.infer_us", MetricDirection::LowerBetter},
        {"step_ns", MetricDirection::LowerBetter},
        {"frame_ms", MetricDirection::LowerBetter},
        // Rates: higher is better (and wins over a time token, as in
        // bytes_per_second).
        {"achieved_qps", MetricDirection::HigherBetter},
        {"throughput", MetricDirection::HigherBetter},
        {"items_per_second", MetricDirection::HigherBetter},
        {"bytes_per_second", MetricDirection::HigherBetter},
        // The old substring matcher classified these wrongly:
        // "timed_out".find("time") == 0 made a *count of failures*
        // gate as lower-is-better wall time; "qps" matched inside
        // arbitrary words. Token matching keeps them informational.
        {"timed_out", MetricDirection::Informational},
        {"times_called", MetricDirection::Informational},
        {"completed", MetricDirection::Informational},
        {"mismatched", MetricDirection::Informational},
        {"p50", MetricDirection::Informational},
        {"iterations", MetricDirection::Informational},
        {"", MetricDirection::Informational},
    };
    for (const Case &c : cases)
        EXPECT_EQ(metricDirection(c.name), c.want) << c.name;

    EXPECT_STREQ(toString(MetricDirection::LowerBetter), "lower");
    EXPECT_STREQ(toString(MetricDirection::HigherBetter), "higher");
    EXPECT_STREQ(toString(MetricDirection::Informational), "info");
}

} // namespace
} // namespace tie
