/**
 * @file
 * Tests for the rank/shape autotuner and the model zoo: search-space
 * enumeration, the cost-model-vs-measured property, thread-count
 * determinism of the Pareto report, winner selection, zoo round-trip
 * through the registry, the shared servable-load path, the .tie
 * section table, and the hardened dataset bounds checks.
 */

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "io/tie_format.hh"
#include "nn/dataset.hh"
#include "obs/json.hh"
#include "serve/model_registry.hh"
#include "serve/load_gen.hh"
#include "tt/cost_model.hh"
#include "tt/infer_session.hh"
#include "tune/autotune.hh"
#include "tune/search_space.hh"
#include "tune/zoo.hh"

namespace tie {
namespace {

/** Small, fast tune options shared by the determinism/zoo tests. */
tune::TuneOptions
quickTuneOptions()
{
    tune::TuneOptions opts;
    opts.seed = 7;
    opts.space.ranks = {1, 2};
    opts.train_samples = 64;
    opts.test_samples = 32;
    opts.classes = 4;
    opts.epochs = 1;
    opts.max_evals = 4;
    opts.sim_mode = tune::SimMode::Analytic;
    return opts;
}

/** mkdtemp scratch directory, removed best-effort on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/tie-tune-test-XXXXXX";
        EXPECT_NE(::mkdtemp(tmpl), nullptr);
        path = tmpl;
    }
    /** Adopts the directory @p made, which the caller created. */
    explicit TempDir(std::string made) : path(std::move(made)) {}
    ~TempDir()
    {
        const int rc =
            std::system(("rm -rf " + path + " 2>/dev/null").c_str());
        (void)rc;
    }
};

TEST(SearchSpace, EnumeratesOrderedFactorizations)
{
    const std::vector<std::vector<size_t>> f12 =
        enumerateFactorizations(12, 2);
    // Ordered: (2,6), (3,4), (4,3), (6,2) — lexicographic.
    ASSERT_EQ(f12.size(), 4u);
    EXPECT_EQ(f12[0], (std::vector<size_t>{2, 6}));
    EXPECT_EQ(f12[1], (std::vector<size_t>{3, 4}));
    EXPECT_EQ(f12[2], (std::vector<size_t>{4, 3}));
    EXPECT_EQ(f12[3], (std::vector<size_t>{6, 2}));

    // A prime has no 2-way factorization with factors >= 2.
    EXPECT_TRUE(enumerateFactorizations(7, 2).empty());
}

TEST(SearchSpace, EnumerateConfigsCoversShapeTimesRank)
{
    tune::SearchSpace space;
    space.min_d = 2;
    space.max_d = 2;
    space.ranks = {1, 4};
    const std::vector<TtLayerConfig> cfgs =
        tune::enumerateConfigs(16, 16, space);
    // 16 = 2x8, 4x4, 8x2 -> 3 m-shapes x 3 n-shapes x 2 ranks.
    EXPECT_EQ(cfgs.size(), 18u);
    for (const TtLayerConfig &cfg : cfgs) {
        EXPECT_EQ(cfg.outSize(), 16u);
        EXPECT_EQ(cfg.inSize(), 16u);
        EXPECT_EQ(cfg.m.size(), 2u);
    }
    // Every candidate validates (enumerateConfigs ran validate()).
}

TEST(SearchSpace, EmptySpaceIsFatal)
{
    tune::SearchSpace space;
    space.min_d = 2;
    space.max_d = 2;
    // 13 and 17 are prime: no valid factorization at d=2.
    EXPECT_DEATH(tune::enumerateConfigs(13, 17, space), "");
}

/**
 * The cost-model property: for every enumerated shape/rank, the
 * analytical per-stage multiply counts must equal what a batch-1
 * inference actually performs, stage by stage — and their total must
 * be multCompact.
 */
TEST(CostModelProperty, PerStageMultsMatchMeasuredInference)
{
    tune::SearchSpace space;
    space.min_d = 2;
    space.max_d = 3;
    space.ranks = {1, 3, 4};
    const std::vector<TtLayerConfig> cfgs =
        tune::enumerateConfigs(24, 36, space);
    ASSERT_FALSE(cfgs.empty());

    Rng rng(123);
    for (const TtLayerConfig &cfg : cfgs) {
        const TtMatrix tt = TtMatrix::random(cfg, rng);
        InferSessionD session(layerView(tt));
        std::vector<double> x(cfg.inSize());
        for (double &v : x)
            v = rng.uniform(-1, 1);
        std::vector<double> y;
        InferStats stats;
        session.runVec(x, y, &stats);

        const std::vector<size_t> per_stage =
            multCompactPerStage(cfg);
        ASSERT_EQ(stats.stage_mults.size(), per_stage.size())
            << cfg.toString();
        size_t total = 0;
        for (size_t h = 0; h < per_stage.size(); ++h) {
            EXPECT_EQ(stats.stage_mults[h], per_stage[h])
                << cfg.toString() << " stage " << h + 1;
            total += per_stage[h];
        }
        EXPECT_EQ(total, multCompact(cfg)) << cfg.toString();
        EXPECT_EQ(stats.mults, multCompact(cfg)) << cfg.toString();
    }
}

/** Same seed, different thread counts: byte-identical Pareto JSON. */
TEST(Autotune, DeterministicAcrossThreadCounts)
{
    const tune::TuneOptions opts = quickTuneOptions();
    const size_t prev_threads = threadCount();

    setThreadCount(1);
    const tune::TuneReport serial = tune::autotune(16, 16, opts);
    const std::string serial_json = tune::paretoJson(serial);

    setThreadCount(4);
    const tune::TuneReport parallel = tune::autotune(16, 16, opts);
    const std::string parallel_json = tune::paretoJson(parallel);
    setThreadCount(prev_threads);

    EXPECT_EQ(serial_json, parallel_json);
    ASSERT_EQ(serial.candidates.size(), parallel.candidates.size());
    for (size_t i = 0; i < serial.candidates.size(); ++i) {
        EXPECT_EQ(serial.candidates[i].accuracy,
                  parallel.candidates[i].accuracy);
        EXPECT_EQ(serial.candidates[i].sim_cycles,
                  parallel.candidates[i].sim_cycles);
    }
    EXPECT_EQ(serial.frontier, parallel.frontier);
    EXPECT_FALSE(serial.frontier.empty());
}

TEST(Autotune, BudgetPrunesAndWinnerRespectsCap)
{
    tune::TuneOptions opts = quickTuneOptions();
    opts.budget.min_compression = 2.0;
    const tune::TuneReport report = tune::autotune(16, 16, opts);
    EXPECT_GT(report.pruned, 0u);
    for (const tune::CandidateResult &c : report.candidates)
        EXPECT_GE(c.compression, 2.0);

    // The winner under a mult cap never exceeds it when any candidate
    // fits; the uncapped winner is the accuracy argmax.
    size_t min_mults = SIZE_MAX, max_acc_idx = 0;
    for (size_t i = 0; i < report.candidates.size(); ++i) {
        min_mults = std::min(min_mults, report.candidates[i].mults);
        if (report.candidates[i].accuracy >
            report.candidates[max_acc_idx].accuracy)
            max_acc_idx = i;
    }
    const size_t capped = tune::selectWinner(report, min_mults);
    EXPECT_LE(report.candidates[capped].mults, min_mults);
    const size_t uncapped = tune::selectWinner(report, 0);
    EXPECT_EQ(report.candidates[uncapped].accuracy,
              report.candidates[max_acc_idx].accuracy);
}

TEST(Autotune, ParetoReportWritesValidSchema)
{
    TempDir dir;
    const tune::TuneOptions opts = quickTuneOptions();
    const tune::TuneReport report = tune::autotune(16, 16, opts);
    const std::string path = dir.path + "/BENCH_pareto.json";
    tune::writeParetoReport(report, path);

    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.is_open());
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    std::string err;
    const obs::JsonValue doc = obs::parseJson(text, &err);
    ASSERT_EQ(doc.type, obs::JsonValue::Type::Object) << err;
    const obs::JsonValue *name = doc.find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->string, "pareto");
    EXPECT_EQ(doc.u64("evaluated"), report.candidates.size());
    const obs::JsonValue *cands = doc.find("candidates");
    ASSERT_NE(cands, nullptr);
    ASSERT_EQ(cands->type, obs::JsonValue::Type::Array);
    ASSERT_EQ(cands->array.size(), report.candidates.size());
    for (const obs::JsonValue &c : cands->array) {
        EXPECT_NE(c.find("m"), nullptr);
        EXPECT_NE(c.find("accuracy"), nullptr);
        EXPECT_NE(c.find("compression"), nullptr);
        // measured_latency_us only appears with measurement on.
        EXPECT_EQ(c.find("measured_latency_us"), nullptr);
    }
    ASSERT_NE(doc.find("frontier"), nullptr);
}

/**
 * The zoo acceptance path: build -> manifest -> publish (mmap) ->
 * serve, with the served outputs bit-identical to an in-process
 * session over the same trained weights.
 */
TEST(Zoo, BuildPublishServeRoundTrip)
{
    TempDir dir;
    tune::ZooOptions zopts;
    zopts.tune = quickTuneOptions();
    zopts.families = {{"mlp", 16, 16, tune::DataKind::Images},
                      {"gru", 12, 16, tune::DataKind::Video}};
    zopts.budgets = {{"fast", 0.5}, {"accurate", 0.0}};

    const tune::ZooManifest built = tune::buildZoo(dir.path, zopts);
    ASSERT_EQ(built.entries.size(), 4u);

    // The manifest round-trips through disk.
    const tune::ZooManifest loaded = tune::loadZooManifest(dir.path);
    ASSERT_EQ(loaded.entries.size(), built.entries.size());
    for (size_t i = 0; i < built.entries.size(); ++i) {
        EXPECT_EQ(loaded.entries[i].name, built.entries[i].name);
        EXPECT_EQ(loaded.entries[i].file, built.entries[i].file);
        EXPECT_EQ(loaded.entries[i].config.toString(),
                  built.entries[i].config.toString());
        EXPECT_TRUE(loaded.entries[i].fxp);
    }

    serve::ModelRegistry registry;
    const std::vector<std::string> names =
        tune::publishZoo(dir.path, registry);
    ASSERT_EQ(names.size(), built.entries.size());

    for (size_t k = 0; k < names.size(); ++k) {
        const serve::ModelInfo info = registry.info(names[k]);
        EXPECT_EQ(info.in_size,
                  built.entries[k].config.inSize());

        // Served output == in-process session over the artifact.
        const io::TieModel m = io::TieModel::load(
            dir.path + "/" + built.entries[k].file);
        InferSessionD session(m.layer(0));
        std::vector<double> x(info.in_size);
        Rng rng(900 + k);
        for (double &v : x)
            v = rng.uniform(-1, 1);
        std::vector<double> want, got;
        session.runVec(x, want);
        serve::RegistryTicket t = registry.submit(names[k], x);
        ASSERT_EQ(registry.wait(t, &got),
                  serve::RequestStatus::Done);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(got[i], want[i]) << names[k] << " elem " << i;
    }
}

TEST(Zoo, MultiTenantMixIsBitExact)
{
    TempDir dir;
    tune::ZooOptions zopts;
    zopts.tune = quickTuneOptions();
    zopts.families = {{"mlp", 16, 16, tune::DataKind::Images},
                      {"gru", 12, 16, tune::DataKind::Video}};
    zopts.budgets = {{"accurate", 0.0}};
    const tune::ZooManifest manifest =
        tune::buildZoo(dir.path, zopts);

    serve::ModelRegistry registry;
    const std::vector<std::string> names =
        tune::publishZoo(dir.path, registry);
    ASSERT_EQ(names.size(), 2u);

    serve::LoadGenOptions mo;
    mo.requests = 40;
    mo.clients = 3;
    mo.seed = 5;
    std::vector<serve::RegistryTenant> tenants;
    std::vector<serve::Oracle> expected;
    for (size_t k = 0; k < names.size(); ++k) {
        tenants.push_back({&registry, names[k]});
        const io::TieModel m = io::TieModel::load(
            dir.path + "/" + manifest.entries[k].file);
        expected.push_back(serve::referenceOutputs(
            m.layers(), k, names.size(), mo.seed, mo.requests));
    }
    const serve::LoadGenReport rep =
        serve::runLoadGen(tenants, mo, &expected);
    EXPECT_EQ(rep.submitted, mo.requests);
    EXPECT_EQ(rep.completed, mo.requests);
    EXPECT_EQ(rep.mismatched, 0u);
    ASSERT_EQ(rep.per_tenant.size(), 2u);
    EXPECT_EQ(rep.per_tenant[0].submitted, 20u);
    EXPECT_EQ(rep.per_tenant[1].submitted, 20u);
    for (const serve::LoadGenReport &r : rep.per_tenant)
        EXPECT_EQ(r.mismatched, 0u);
}

/**
 * Every numeric manifest field goes through one checked conversion:
 * a string, a negative, a fraction or a value above 2^53 in a factor
 * list, "mults" or "sim_cycles" is refused with a diagnostic (exit
 * 1), never cast to size_t.
 */
/** True in a threadsafe death-test child, which re-runs its test. */
bool
inDeathTestChild()
{
    // The flag moved from testing::internal to testing across gtest
    // releases; the using-directives find it in either.
    using namespace ::testing;
    using namespace ::testing::internal;
    return !FLAGS_gtest_internal_run_death_test.empty();
}

TEST(Zoo, HostileManifestNumbersAreRejected)
{
    // Re-exec instead of fork: earlier tests leave pool threads. Each
    // death-test child re-runs this body and exits inside EXPECT_EXIT,
    // before any destructor, so it must create nothing: only the parent
    // makes the directory, named after its pid, and the children (whose
    // parent it is) rewrite the manifest inside it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const bool child = inDeathTestChild();
    const std::string path =
        "/tmp/tie-tune-test-hostile-" +
        std::to_string(child ? ::getppid() : ::getpid());
    if (!child) {
        ASSERT_TRUE(::mkdir(path.c_str(), 0700) == 0 || errno == EEXIST)
            << path;
    }
    TempDir dir(path);
    auto manifest = [&](const std::string &m, const std::string &mults,
                        const std::string &cycles) {
        std::ofstream os(dir.path + "/zoo.json");
        os << R"({"models": [{"model": "mlp-x", "family": "mlp",)"
           << R"( "budget": "x", "file": "mlp-x.tie", "m": )" << m
           << R"(, "n": [4, 4], "r": [1, 2, 1], "accuracy": 0.5,)"
           << R"( "compression": 2, "mults": )" << mults
           << R"(, "sim_cycles": )" << cycles << R"(, "fxp": false}]})";
    };
    manifest("[4, 4]", "64", "100");
    const tune::ZooManifest ok = tune::loadZooManifest(dir.path);
    ASSERT_EQ(ok.entries.size(), 1u);
    EXPECT_EQ(ok.entries[0].mults, 64u);
    EXPECT_EQ(ok.entries[0].sim_cycles, 100u);

    for (const char *bad : {"[\"4\", 4]", "[-1, 4]", "[2.5, 4]",
                            "[1e30, 4]", "[9007199254740994, 4]"}) {
        manifest(bad, "64", "100");
        EXPECT_EXIT(tune::loadZooManifest(dir.path),
                    ::testing::ExitedWithCode(1), "\"m\" must be a whole")
            << bad;
    }
    for (const char *bad : {"\"64\"", "-1", "2.5", "1e30", "null"}) {
        manifest("[4, 4]", bad, "100");
        EXPECT_EXIT(tune::loadZooManifest(dir.path),
                    ::testing::ExitedWithCode(1),
                    "\"mults\" must be a whole")
            << bad;
        manifest("[4, 4]", "64", bad);
        EXPECT_EXIT(tune::loadZooManifest(dir.path),
                    ::testing::ExitedWithCode(1),
                    "\"sim_cycles\" must be a whole")
            << bad;
    }
}

TEST(Servable, LoadsBothFormatsAndRejectsMissing)
{
    // .tie is the one model format: a mapped file and the same bytes
    // parsed in memory serve the same bits; a missing file is a
    // non-fatal load failure with a diagnostic.
    TempDir dir;
    TtLayerConfig cfg;
    cfg.m = {2, 4};
    cfg.n = {4, 2};
    cfg.r = {1, 2, 1};
    Rng rng(77);
    const TtMatrix tt = TtMatrix::random(cfg, rng);

    const std::string tie_path = dir.path + "/m.tie";
    io::saveTieModel(tt, tie_path);

    io::TieModel a, b;
    std::string err;
    ASSERT_TRUE(io::TieModel::tryLoad(tie_path, &a, &err)) << err;
    EXPECT_TRUE(a.mapped());
    ASSERT_TRUE(io::TieModel::tryParse(
        io::serializeTieModel({io::makeLayerSpec(tt)}), &b, &err))
        << err;
    EXPECT_FALSE(b.mapped());
    ASSERT_EQ(a.layers().size(), 1u);
    ASSERT_EQ(b.layers().size(), 1u);

    // Both backings serve the same bits.
    InferSessionD sa(a.layer(0)), sb(b.layer(0));
    std::vector<double> x(cfg.inSize());
    for (double &v : x)
        v = rng.uniform(-1, 1);
    std::vector<double> ya, yb;
    sa.runVec(x, ya);
    sb.runVec(x, yb);
    EXPECT_EQ(ya, yb);

    io::TieModel c;
    EXPECT_FALSE(io::TieModel::tryLoad(dir.path + "/nope.tie", &c,
                                       &err));
    EXPECT_FALSE(err.empty());
}

TEST(Servable, PublishFileServesEitherFormat)
{
    // publishFile over a .tie serves what the in-memory artifact
    // serves; a missing file publishes nothing.
    TempDir dir;
    TtLayerConfig cfg;
    cfg.m = {2, 4};
    cfg.n = {4, 2};
    cfg.r = {1, 2, 1};
    Rng rng(78);
    const TtMatrix tt = TtMatrix::random(cfg, rng);
    io::saveTieModel(tt, dir.path + "/m.tie");

    serve::ModelRegistry registry;
    EXPECT_EQ(registry.publishFile("a", dir.path + "/m.tie"), 1u);
    EXPECT_EQ(registry.publish("b", io::TieModel::parse(
                                        io::serializeTieModel(
                                            {io::makeLayerSpec(tt)}))),
              1u);

    std::vector<double> x(cfg.inSize());
    for (double &v : x)
        v = rng.uniform(-1, 1);
    std::vector<double> ya, yb;
    serve::RegistryTicket ta = registry.submit("a", x);
    ASSERT_EQ(registry.wait(ta, &ya), serve::RequestStatus::Done);
    serve::RegistryTicket tb = registry.submit("b", x);
    ASSERT_EQ(registry.wait(tb, &yb), serve::RequestStatus::Done);
    EXPECT_EQ(ya, yb);

    uint64_t version = 0;
    std::string err;
    EXPECT_FALSE(registry.tryPublishFile("c", dir.path + "/nope",
                                         &version, &err));
    EXPECT_FALSE(registry.has("c"));
    EXPECT_FALSE(err.empty());
}

TEST(TieFormat, SectionTableIsExposedAndNamed)
{
    TempDir dir;
    TtLayerConfig cfg;
    cfg.m = {2, 4};
    cfg.n = {4, 2};
    cfg.r = {1, 2, 1};
    Rng rng(79);
    const TtMatrix tt = TtMatrix::random(cfg, rng);
    const TtMatrixFxp fxp =
        TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});
    const std::string path = dir.path + "/m.tie";
    io::saveTieModel({io::makeLayerSpec(tt, fxp)}, path);

    const io::TieModel m = io::TieModel::load(path);
    const std::vector<io::TieSectionInfo> &sections = m.sections();
    // ModelMeta, Graph, LayerConfig, CoresF64, FxpMeta, CoresI16.
    ASSERT_EQ(sections.size(), 6u);
    EXPECT_EQ(sections[0].kind,
              static_cast<uint32_t>(io::TieSection::ModelMeta));
    EXPECT_EQ(sections[0].layer, io::kTieModelScope);
    EXPECT_STREQ(io::tieSectionKindName(sections[0].kind),
                 "ModelMeta");
    EXPECT_STREQ(io::tieSectionKindName(sections[5].kind),
                 "CoresI16");
    EXPECT_STREQ(io::tieSectionKindName(999), "?");
    uint64_t file_end = 0;
    for (const io::TieSectionInfo &s : sections) {
        EXPECT_EQ(s.offset % io::kTieAlign, 0u);
        EXPECT_GT(s.size, 0u);
        file_end = std::max(file_end, s.offset + s.size);
    }
    EXPECT_LE(file_end, m.sizeBytes());
}

TEST(DatasetBounds, SliceAndBatchAccessorsFailStop)
{
    Rng rng(11);
    const Dataset ds = makeClusteredImages(10, 2, 4, 0.1, rng);
    EXPECT_EQ(ds.slice(8, 2).size(), 2u);
    EXPECT_DEATH(ds.slice(8, 3), "out of range");
    EXPECT_DEATH(ds.slice(11, 0), "out of range");
    // Overflow-probe: begin + count wrapping must not pass the check.
    EXPECT_DEATH(ds.slice(1, SIZE_MAX), "out of range");

    const SeqDataset seq = makeSyntheticVideo(6, 2, 4, 3, 0.1, rng);
    EXPECT_EQ(seq.packBatch(4, 2).cols(), 3u * 2u);
    EXPECT_DEATH(seq.packBatch(4, 3), "out of range");
    EXPECT_DEATH(seq.packBatch(0, 0), "must not be empty");
    EXPECT_DEATH(seq.batchLabels(5, 2), "out of range");
    EXPECT_DEATH(seq.batchLabels(2, SIZE_MAX), "out of range");
}

} // namespace
} // namespace tie
