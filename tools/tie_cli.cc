/**
 * @file
 * tie_cli — command-line front end for the library, the workflow a
 * deployment engineer would script:
 *
 *   tie_cli synth out.tie --m 4,4,4 --n 4,8,8 --rank 4 [--seed 1]
 *       create a random TT model (train-from-scratch stand-in)
 *   tie_cli decompose dense.f64 out.tie --m .. --n .. --rank ..
 *       TT-SVD a dense row-major float64 weight file
 *   tie_cli info model.tie
 *       artifact summary, per layer shapes, compression,
 *       multiplication counts and SRAM fit, the section table
 *   tie_cli round in.tie out.tie --rank 2 [--eps 1e-4]
 *       re-rank an existing one-layer model (tt rounding)
 *   tie_cli tune <out_dim> <in_dim> [--seed 1] [--ranks 1,2,4,8] ..
 *       rank/shape autotune: enumerate factorizations x ranks, prune
 *       with the cost model, train/evaluate survivors in parallel,
 *       emit the Pareto frontier as BENCH_pareto.json
 *       (docs/autotuning.md)
 *   tie_cli zoo-build <dir> [--budgets fast:0.25,accurate:0] ..
 *       tune the paper's four workload families and serialize each
 *       budget's winner as a .tie artifact + zoo.json manifest
 *   tie_cli simulate model.tie [--npe 16 --nmac 16 --freq 1000]
 *                    [--batch 1] [--relu]
 *       run the cycle-accurate simulator on a one-layer model, print
 *       the full report
 *   tie_cli serve-bench model.tie [--workers 1 --max-batch 8
 *                    --timeout-us 200 --queue-cap 256] [--requests 256]
 *                    [--clients 4 | --qps Q] [--deadline-us D] [--seed]
 *       drive the dynamic-batching server with the closed-loop
 *       (--clients) or open-loop (--qps) load generator, verify every
 *       completed output bit-exactly, print the latency/SLO report
 *   tie_cli save-model out.tie (--from a.tie[,b.tie..] |
 *                    --m .. --n .. [--rank r] [--seed s]) [--fxp]
 *       package a layer chain (the inputs' layers, concatenated) as
 *       one .tie artifact (docs/serialization.md); --fxp embeds the
 *       quantized twin
 *   tie_cli cluster-bench (model.tie | --zoo DIR) [--replicas K]
 *                    [--requests R] [--chaos [--chaos-kills N]]
 *                    [--p99-bound-us X]
 *       spawn K tie_worker processes per model, shard a closed-loop
 *       run across them through one cluster router per model, verify
 *       every output bit-exactly against the single-process oracle;
 *       --zoo drives every zoo artifact as one mixed-traffic run;
 *       --chaos (single model) SIGKILLs and restarts replicas
 *       mid-load and asserts zero lost requests (docs/cluster.md)
 *
 * Every model file is a .tie artifact; a file its loader refuses
 * (bad bytes, non-finite weights) exits 1 with the diagnostic.
 *
 * Every command additionally accepts --stats-json[=path] and
 * --trace-out[=path] (or the TIE_STATS_JSON / TIE_TRACE environment
 * variables): the first dumps a machine-readable JSON report of every
 * table printed plus, for simulate, the full SimStats/PerfReport/
 * PowerReport; the second writes a Chrome trace (chrome://tracing,
 * Perfetto) of the simulated-cycle timeline and host-side spans. See
 * docs/observability.md.
 */

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/stats_io.hh"
#include "arch/tie_sim.hh"
#include "cluster/process.hh"
#include "cluster/router.hh"
#include "common/table.hh"
#include "io/tie_format.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "obs/stat_registry.hh"
#include "quant/fxp_simd.hh"
#include "serve/load_gen.hh"
#include "serve/metrics_endpoint.hh"
#include "serve/model_registry.hh"
#include "serve/server.hh"
#include "tt/cost_model.hh"
#include "tt/tt_round.hh"
#include "tt/tt_svd.hh"
#include "tune/autotune.hh"
#include "tune/zoo.hh"

using namespace tie;

namespace {

/**
 * @p text as a T: a plain non-negative decimal, finite and at most
 * @p max. Anything else (a sign, trailing garbage, out of range,
 * inf/nan) is fatal with a diagnostic naming @p what, so a bad flag
 * exits 1 instead of throwing out of std::sto*.
 */
template <class T>
T
parseNumber(const std::string &text, const std::string &what,
            T max = std::numeric_limits<T>::max())
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    const bool ok = !text.empty() && text[0] != '-' &&
                    ec == std::errc() && ptr == end &&
                    std::isfinite(static_cast<double>(v)) && v <= max;
    TIE_CHECK_ARG(ok, what, " must be a non-negative ",
                  std::is_integral_v<T> ? "integer" : "finite number",
                  " no larger than ", max, "; got \"", text, "\"");
    return v;
}

/** Minimal "--key value" / "--flag" option parser. */
struct Options
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> named;
    std::map<std::string, bool> flags;

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = named.find(key);
        return it == named.end() ? fallback : it->second;
    }
    bool
    has(const std::string &key) const
    {
        return flags.count(key) > 0 || named.count(key) > 0;
    }
    /** --key through parseNumber; @p fallback when absent. */
    template <class T>
    T
    num(const std::string &key, T fallback,
        T max = std::numeric_limits<T>::max()) const
    {
        return has(key) ? parseNumber<T>(get(key), "--" + key, max)
                        : fallback;
    }
};

Options
parseArgs(int argc, char **argv, int first)
{
    Options opt;
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            const std::string body = arg.substr(2);
            const size_t eq = body.find('=');
            if (eq != std::string::npos) {
                opt.named[body.substr(0, eq)] = body.substr(eq + 1);
            } else if (i + 1 < argc &&
                       std::string(argv[i + 1]).rfind("--", 0) != 0) {
                opt.named[body] = argv[++i];
            } else {
                opt.flags[body] = true;
            }
        } else {
            opt.positional.push_back(arg);
        }
    }
    return opt;
}

std::vector<size_t>
parseFactors(const std::string &csv)
{
    std::vector<size_t> out;
    std::stringstream ss(csv);
    std::string tok;
    while (std::getline(ss, tok, ','))
        out.push_back(parseNumber<size_t>(tok, "factor"));
    TIE_CHECK_ARG(!out.empty(), "empty factor list");
    return out;
}

TtLayerConfig
configFrom(const Options &opt)
{
    TIE_CHECK_ARG(opt.has("m") && opt.has("n"),
                  "--m and --n factor lists are required");
    TtLayerConfig cfg;
    cfg.m = parseFactors(opt.get("m"));
    cfg.n = parseFactors(opt.get("n"));
    const size_t rank = opt.num<size_t>("rank", 4);
    cfg.r.assign(cfg.m.size() + 1, rank);
    cfg.r.front() = cfg.r.back() = 1;
    cfg.validate();
    return cfg;
}

int
cmdSynth(const Options &opt)
{
    TIE_CHECK_ARG(opt.positional.size() == 1,
                  "usage: tie_cli synth <out.tie> --m .. --n .. "
                  "[--rank r] [--seed s]");
    TtLayerConfig cfg = configFrom(opt);
    Rng rng(opt.num<uint64_t>("seed", 1));
    TtMatrix tt = TtMatrix::random(cfg, rng);
    io::saveTieModel(tt, opt.positional[0]);
    std::cout << "wrote " << opt.positional[0] << ": "
              << cfg.toString() << "\n";
    return 0;
}

int
cmdDecompose(const Options &opt)
{
    TIE_CHECK_ARG(opt.positional.size() == 2,
                  "usage: tie_cli decompose <dense.f64> <out.tie> "
                  "--m .. --n .. [--rank r] [--eps e]");
    TtLayerConfig cfg = configFrom(opt);

    std::ifstream is(opt.positional[0], std::ios::binary);
    TIE_CHECK_ARG(is.is_open(), "cannot open ", opt.positional[0]);
    MatrixD w(cfg.outSize(), cfg.inSize());
    is.read(reinterpret_cast<char *>(w.data()),
            static_cast<std::streamsize>(w.size() * sizeof(double)));
    TIE_CHECK_ARG(static_cast<bool>(is), "dense file too small: need ",
                  w.size() * sizeof(double), " bytes");

    const double eps = opt.num<double>("eps", 0);
    TtMatrix tt = ttSvdMatrix(w, cfg, eps);
    io::saveTieModel(tt, opt.positional[1]);

    std::cout << "wrote " << opt.positional[1] << ": "
              << tt.config().toString() << "\nreconstruction error "
              << relativeError(tt.toDense(), w) << "\n";
    return 0;
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string tok;
    while (std::getline(ss, tok, ','))
        if (!tok.empty())
            out.push_back(tok);
    return out;
}

int
cmdSaveModel(const Options &opt)
{
    TIE_CHECK_ARG(opt.positional.size() == 1,
                  "usage: tie_cli save-model <out.tie> "
                  "(--from a.tie[,b.tie..] | --m .. --n .. [--rank r] "
                  "[--seed s]) [--fxp]");
    std::vector<TtMatrix> layers;
    if (opt.has("from")) {
        for (const std::string &p : splitCsv(opt.get("from"))) {
            const io::TieModel m = io::TieModel::load(p);
            for (size_t i = 0; i < m.layerCount(); ++i)
                layers.push_back(m.toTtMatrix(i));
        }
        TIE_CHECK_ARG(!layers.empty(), "--from lists no files");
    } else {
        TtLayerConfig cfg = configFrom(opt);
        Rng rng(opt.num<uint64_t>("seed", 1));
        layers.push_back(TtMatrix::random(cfg, rng));
    }

    // Quantized twins must outlive the view-holding specs below.
    std::vector<TtMatrixFxp> quant;
    if (opt.has("fxp")) {
        const FxpFormat act{16, 8};
        quant.reserve(layers.size());
        for (const TtMatrix &tt : layers)
            quant.push_back(TtMatrixFxp::quantizeAuto(tt, act));
    }
    std::vector<io::TieLayerSpec> specs;
    specs.reserve(layers.size());
    for (size_t i = 0; i < layers.size(); ++i)
        specs.push_back(opt.has("fxp")
                            ? io::makeLayerSpec(layers[i], quant[i])
                            : io::makeLayerSpec(layers[i]));
    io::saveTieModel(specs, opt.positional[0]);

    // Reload through the real loader so what we report is what a
    // consumer will actually see (and the artifact is proven valid).
    io::TieModel m = io::TieModel::load(opt.positional[0]);
    std::cout << "wrote " << opt.positional[0] << ": "
              << m.layerCount() << " layer(s), " << m.inSize()
              << " -> " << m.outSize() << (m.hasFxp() ? ", fxp" : "")
              << ", " << m.sizeBytes() << " bytes\n";
    return 0;
}

/** "0x" + zero-padded 8-digit hex of a CRC-32. */
std::string
crcHex(uint32_t crc)
{
    char buf[11];
    std::snprintf(buf, sizeof(buf), "0x%08x", crc);
    return buf;
}

/** One layer's cost rows: compression, mults, SRAM fit. */
void
printLayerCosts(const std::string &title, const TtLayerConfig &cfg)
{
    TextTable t(title);
    t.header({"property", "value"});
    t.row({"config", cfg.toString()});
    t.row({"dense params", std::to_string(cfg.denseParamCount())});
    t.row({"TT params", std::to_string(cfg.ttParamCount())});
    t.row({"compression", TextTable::ratio(cfg.compressionRatio(), 1)});
    t.row({"mults (naive, Eqn. 3)", std::to_string(multNaive(cfg))});
    t.row({"mults (compact)", std::to_string(multCompact(cfg))});
    t.row({"mults (minimum, Eqn. 7)",
           std::to_string(multTheoreticalMin(cfg))});
    const double wkb = cfg.ttParamCount() * 2.0 / 1024.0;
    const double ikb = workingBufferElems(cfg) * 2.0 / 1024.0;
    t.row({"weight footprint", TextTable::num(wkb, 2) + " KB" +
                                   (wkb <= 16 ? " (fits 16 KB)"
                                              : " (exceeds 16 KB)")});
    t.row({"peak intermediate", TextTable::num(ikb, 1) + " KB" +
                                    (ikb <= 384 ? " (fits 384 KB)"
                                                : " (exceeds 384 KB)")});
    t.print();
}

/**
 * Per stage of an int16 twin: the largest row sum of |w| of its core
 * and the largest operand |x| for which every row tile of that stage
 * runs the accumulator clamp-free (quant/fxp_simd.hh). A stage whose
 * operands stay within that |x| cannot saturate at all.
 */
void
printClampReach(const std::string &title, const TtFxpLayerView &v)
{
    TextTable t(title);
    t.header({"stage", "core", "max row sum |w|", "clamp-free max |x|"});
    for (size_t h = 1; h <= v.cores.size(); ++h) {
        const CoreView<int16_t> &g = v.cores[h - 1];
        int64_t most = 0;
        for (size_t i = 0; i < g.rows; ++i) {
            int64_t sum = 0;
            for (size_t kk = 0; kk < g.cols; ++kk)
                sum += std::abs(int32_t(g.data[i * g.cols + kk]));
            most = std::max(most, sum);
        }
        std::string reach = "scalar chain";
        if (fxpSimdEligible(v.fmt[h - 1])) {
            const int64_t budget = fxpClampFreeBudget(v.fmt[h - 1], g.cols);
            const int64_t x = budget < 0 ? -1
                              : most == 0 ? 32768
                                          : std::min<int64_t>(budget / most,
                                                              32768);
            reach = x < 0 ? "none" : std::to_string(x);
            if (x == 32768)
                reach += " (any int16)";
        }
        t.row({std::to_string(h),
               std::to_string(g.rows) + " x " + std::to_string(g.cols),
               std::to_string(most), reach});
    }
    t.print();
}

int
cmdInfo(const Options &opt)
{
    TIE_CHECK_ARG(opt.positional.size() == 1,
                  "usage: tie_cli info <model.tie>");
    const std::string &path = opt.positional[0];
    io::TieModel m = io::TieModel::load(path);
    TextTable t(path);
    t.header({"property", "value"});
    t.row({"format", ".tie v" + std::to_string(io::kTieVersion)});
    t.row({"size", std::to_string(m.sizeBytes()) + " bytes (mmap)"});
    t.row({"layers", std::to_string(m.layerCount())});
    t.row({"interface", std::to_string(m.inSize()) + " -> " +
                            std::to_string(m.outSize())});
    t.row({"fxp twin", m.hasFxp() ? "yes" : "no"});
    t.print();
    for (size_t i = 0; i < m.layerCount(); ++i) {
        printLayerCosts("layer " + std::to_string(i), m.config(i));
        if (m.hasFxp())
            printClampReach("layer " + std::to_string(i) +
                                " int16 clamp bound",
                            m.fxpLayer(i));
    }

    // The full validated section table — every row already passed the
    // loader's bounds and CRC checks, so this doubles as an integrity
    // receipt for the artifact.
    TextTable st("sections (" +
                 std::to_string(m.sections().size()) + ")");
    st.header({"#", "kind", "layer", "offset", "size", "crc32"});
    size_t idx = 0;
    for (const io::TieSectionInfo &s : m.sections()) {
        st.row({std::to_string(idx++),
                io::tieSectionKindName(s.kind),
                s.layer == io::kTieModelScope
                    ? "model"
                    : std::to_string(s.layer),
                std::to_string(s.offset), std::to_string(s.size),
                crcHex(s.crc32)});
    }
    st.print();
    return 0;
}

/**
 * The single layer of the .tie at @p path, for the commands that
 * operate on one TT matrix; a multi-layer artifact is refused.
 */
TtMatrix
loadOneLayer(const std::string &path, const char *command)
{
    const io::TieModel m = io::TieModel::load(path);
    TIE_CHECK_ARG(m.layerCount() == 1, command,
                  " takes a one-layer .tie; ", path, " has ",
                  m.layerCount(), " layers");
    return m.toTtMatrix(0);
}

int
cmdRound(const Options &opt)
{
    TIE_CHECK_ARG(opt.positional.size() == 2,
                  "usage: tie_cli round <in.tie> <out.tie> --rank r "
                  "[--eps e]");
    TtMatrix tt = loadOneLayer(opt.positional[0], "round");
    const size_t rank = opt.num<size_t>("rank", 4);
    const double eps = opt.num<double>("eps", 0);
    TtMatrix rounded = ttRound(tt, rank, eps);
    io::saveTieModel(rounded, opt.positional[1]);
    std::cout << "rounded " << tt.config().toString() << "\n  ->    "
              << rounded.config().toString() << "\n";
    return 0;
}

int
cmdSimulate(const Options &opt)
{
    TIE_CHECK_ARG(opt.positional.size() == 1,
                  "usage: tie_cli simulate <model.tie> [--npe N] "
                  "[--nmac M] [--freq MHz] [--batch B] [--relu] "
                  "[--seed s]");
    TtMatrix tt = loadOneLayer(opt.positional[0], "simulate");

    TieArchConfig cfg;
    cfg.n_pe = opt.num<size_t>("npe", 16);
    cfg.n_mac = opt.num<size_t>("nmac", 16);
    cfg.freq_mhz = opt.num<double>("freq", 1000);
    const size_t batch = opt.num<size_t>("batch", 1);

    Rng rng(opt.num<uint64_t>("seed", 7));
    const FxpFormat act{16, 8};
    TtMatrixFxp ttq = TtMatrixFxp::quantizeAuto(tt, act);
    MatrixF xf(tt.config().inSize(), batch);
    xf.setUniform(rng, -1, 1);

    TieSimulator sim(cfg);
    TieSimResult res = sim.runLayer(ttq, quantizeMatrix(xf, act),
                                    opt.has("relu"));

    // Cross-check against the functional reference before reporting.
    Matrix<int16_t> ref = compactInferFxp(ttq, quantizeMatrix(xf, act));
    bool exact = !opt.has("relu");
    if (exact)
        for (size_t i = 0; i < ref.size(); ++i)
            exact &= res.output.flat()[i] == ref.flat()[i];

    PerfReport perf =
        makePerfReport(res.stats, tt.config().outSize(),
                       tt.config().inSize(), cfg, sim.tech());

    // Machine-readable twin of the table below (--stats-json).
    if (obs::Session *s = obs::Session::current();
        s != nullptr && s->statsRequested()) {
        obs::JsonWriter w;
        w.beginObject();
        w.field("model", opt.positional[0]);
        w.key("arch").beginObject();
        w.field("n_pe", static_cast<uint64_t>(cfg.n_pe));
        w.field("n_mac", static_cast<uint64_t>(cfg.n_mac));
        w.field("freq_mhz", cfg.freq_mhz);
        w.field("batch", static_cast<uint64_t>(batch));
        w.endObject();
        w.key("sim").raw(simStatsJson(res.stats));
        w.key("power").raw(powerReportJson(
            computePower(res.stats, cfg, sim.tech())));
        w.key("perf").raw(perfReportJson(perf));
        w.field("bit_exact", exact);
        w.endObject();
        s->setExtra("simulate", w.str());
    }

    TextTable t("simulation report");
    t.header({"metric", "value"});
    t.row({"hardware", std::to_string(cfg.n_pe) + " PE x " +
                           std::to_string(cfg.n_mac) + " MAC @ " +
                           TextTable::num(cfg.freq_mhz, 0) + " MHz"});
    t.row({"batch", std::to_string(batch)});
    t.row({"cycles", std::to_string(res.stats.cycles)});
    t.row({"stall cycles", std::to_string(res.stats.stall_cycles)});
    t.row({"latency", TextTable::num(perf.latency_us, 3) + " us"});
    t.row({"effective throughput",
           TextTable::num(perf.effective_gops * batch, 1) + " GOPS"});
    t.row({"power", TextTable::num(perf.power_mw, 1) + " mW"});
    t.row({"area", TextTable::num(perf.area_mm2, 2) + " mm^2"});
    if (!opt.has("relu"))
        t.row({"bit-exact vs reference", exact ? "yes" : "NO"});
    t.print();
    return exact || opt.has("relu") ? 0 : 2;
}

/** Shared tune knobs of the tune and zoo-build commands. */
tune::TuneOptions
tuneOptionsFrom(const Options &opt)
{
    tune::TuneOptions topts;
    topts.seed = opt.num<uint64_t>("seed", 1);
    topts.space.min_d = opt.num<size_t>("min-d", 2);
    topts.space.max_d = opt.num<size_t>("max-d", 3);
    if (opt.has("ranks"))
        topts.space.ranks = parseFactors(opt.get("ranks"));
    topts.budget.min_compression = opt.num<double>("min-compression", 1);
    topts.budget.max_mults = opt.num<size_t>("max-mults", 0);
    topts.budget.max_working_elems = opt.num<size_t>("max-working", 0);
    topts.budget.max_params = opt.num<size_t>("max-params", 0);
    topts.max_evals = opt.num<size_t>("max-evals", 32);
    topts.epochs = opt.num<size_t>("epochs", 4);
    topts.classes = opt.num<size_t>("classes", 8);
    topts.train_samples = opt.num<size_t>("train", 256);
    topts.test_samples = opt.num<size_t>("test", 128);
    const std::string data = opt.get("data", "images");
    if (data == "video")
        topts.data = tune::DataKind::Video;
    else
        TIE_CHECK_ARG(data == "images", "--data must be images|video");
    topts.video_steps = opt.num<size_t>("steps", 4);
    const std::string sim = opt.get("sim", "run");
    if (sim == "off")
        topts.sim_mode = tune::SimMode::Off;
    else if (sim == "analytic")
        topts.sim_mode = tune::SimMode::Analytic;
    else
        TIE_CHECK_ARG(sim == "run", "--sim must be run|analytic|off");
    topts.arch.n_pe = opt.num<size_t>("npe", 16);
    topts.arch.n_mac = opt.num<size_t>("nmac", 16);
    topts.measure = opt.has("measure");
    return topts;
}

int
cmdTune(const Options &opt)
{
    TIE_CHECK_ARG(
        opt.positional.size() == 2,
        "usage: tie_cli tune <out_dim> <in_dim> [--seed s]"
        " [--min-d A] [--max-d B] [--ranks 1,2,4,8]"
        " [--min-compression X] [--max-mults M] [--max-working W]"
        " [--max-params P] [--max-evals K] [--epochs E] [--classes C]"
        " [--train N] [--test N] [--data images|video] [--steps T]"
        " [--sim run|analytic|off] [--npe N] [--nmac M] [--measure]"
        " [--pareto-out FILE]");
    const size_t out_dim = parseNumber<size_t>(opt.positional[0], "out_dim");
    const size_t in_dim = parseNumber<size_t>(opt.positional[1], "in_dim");
    const tune::TuneOptions topts = tuneOptionsFrom(opt);

    const tune::TuneReport report = tune::autotune(out_dim, in_dim,
                                                   topts);

    const std::string pareto_path =
        opt.get("pareto-out", "BENCH_pareto.json");
    tune::writeParetoReport(report, pareto_path);

    if (obs::Session *s = obs::Session::current();
        s != nullptr && s->statsRequested())
        s->setExtra("pareto", tune::paretoJson(report));

    TextTable t("autotune " + std::to_string(out_dim) + " x " +
                std::to_string(in_dim) + " (seed " +
                std::to_string(topts.seed) + ")");
    t.header({"candidate", "config", "comp", "acc", "mults",
              "model us", "sim cyc", "front"});
    for (const tune::CandidateResult &c : report.candidates) {
        t.row({std::to_string(c.index), c.config.toString(),
               TextTable::ratio(c.compression, 1),
               TextTable::num(c.accuracy, 3),
               std::to_string(c.mults),
               TextTable::num(c.modeled_latency_us, 2),
               std::to_string(c.sim_cycles),
               c.on_frontier ? "*" : ""});
    }
    t.print();
    std::cout << report.enumerated << " enumerated, " << report.pruned
              << " pruned by the cost model, " << report.sampled_out
              << " sampled out, " << report.candidates.size()
              << " evaluated, " << report.frontier.size()
              << " on the Pareto frontier\nwrote " << pareto_path
              << "\n";
    return 0;
}

int
cmdZooBuild(const Options &opt)
{
    TIE_CHECK_ARG(
        opt.positional.size() == 1,
        "usage: tie_cli zoo-build <dir> [--budgets fast:0.25,"
        "accurate:0] [--families mlp,cnn,lstm,gru] [--no-fxp]"
        " + the tune knobs of `tie_cli tune`");
    tune::ZooOptions zopts;
    zopts.tune = tuneOptionsFrom(opt);
    zopts.fxp_twin = !opt.has("no-fxp");
    if (opt.has("budgets")) {
        zopts.budgets.clear();
        for (const std::string &tok : splitCsv(opt.get("budgets"))) {
            const size_t colon = tok.find(':');
            TIE_CHECK_ARG(colon != std::string::npos,
                          "--budgets entries are name:mult_cap_frac; "
                          "got ", tok);
            zopts.budgets.push_back(
                {tok.substr(0, colon),
                 parseNumber<double>(tok.substr(colon + 1),
                                     "--budgets cap fraction")});
        }
    }
    if (opt.has("families")) {
        const std::vector<std::string> keep =
            splitCsv(opt.get("families"));
        std::vector<tune::ZooFamily> picked;
        for (const tune::ZooFamily &f : zopts.families)
            for (const std::string &k : keep)
                if (f.name == k) {
                    picked.push_back(f);
                    break;
                }
        TIE_CHECK_ARG(!picked.empty(),
                      "--families matches no default family");
        zopts.families = picked;
    }

    const tune::ZooManifest manifest =
        tune::buildZoo(opt.positional[0], zopts);

    if (obs::Session *s = obs::Session::current();
        s != nullptr && s->statsRequested())
        s->setExtra("zoo", tune::manifestJson(manifest));

    TextTable t("model zoo: " + opt.positional[0]);
    t.header({"model", "config", "acc", "comp", "mults", "sim cyc",
              "fxp"});
    for (const tune::ZooEntry &e : manifest.entries)
        t.row({e.name, e.config.toString(),
               TextTable::num(e.accuracy, 3),
               TextTable::ratio(e.compression, 1),
               std::to_string(e.mults), std::to_string(e.sim_cycles),
               e.fxp ? "yes" : "no"});
    t.print();
    std::cout << "wrote " << manifest.entries.size()
              << " artifact(s) + zoo.json to " << opt.positional[0]
              << "\n";
    return 0;
}

/** CPU time, context switches and peak RSS, from getrusage. */
struct Usage
{
    double cpu_us = 0;
    double ctx_switches = 0;
    double rss_peak_mib = 0; ///< RUSAGE_CHILDREN: the largest child's
};

/** Usage of this process (RUSAGE_SELF) or of every child reaped so
    far (RUSAGE_CHILDREN). */
Usage
usage(int who)
{
    rusage ru{};
    ::getrusage(who, &ru);
    auto us = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) * 1e6 +
               static_cast<double>(t.tv_usec);
    };
    return {us(ru.ru_utime) + us(ru.ru_stime),
            static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw),
            static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/** The batching-server knobs serve-bench and cluster-bench share. */
serve::ServerOptions
serverOptionsFrom(const Options &opt, size_t max_batch, size_t queue_cap)
{
    serve::ServerOptions sopts;
    sopts.workers = opt.num<size_t>("workers", 1);
    sopts.max_batch = opt.num<size_t>("max-batch", max_batch);
    sopts.batch_timeout_us = opt.num<uint64_t>("timeout-us", 200);
    sopts.queue_capacity = opt.num<size_t>("queue-cap", queue_cap);
    return sopts;
}

/** The load generator's knobs, shared likewise. */
serve::LoadGenOptions
loadOptionsFrom(const Options &opt, size_t requests)
{
    serve::LoadGenOptions lopts;
    lopts.requests = opt.num<size_t>("requests", requests);
    lopts.clients = opt.num<size_t>("clients", 4);
    lopts.offered_qps = opt.num<double>("qps", 0);
    lopts.deadline_us = opt.num<uint64_t>("deadline-us", 0);
    lopts.seed = opt.num<uint64_t>("seed", 1);
    return lopts;
}

int
cmdServeBench(const Options &opt)
{
    TIE_CHECK_ARG(opt.positional.size() == 1,
                  "usage: tie_cli serve-bench <model.tie>"
                  " [--workers W]"
                  " [--max-batch B] [--timeout-us T] [--queue-cap C]"
                  " [--requests R] [--clients K | --qps Q]"
                  " [--deadline-us D] [--seed s]"
                  " [--metrics-port P] [--metrics-snapshot FILE]"
                  " [--metrics-linger-ms L]");

    // The views alias the mapping, which must outlive the server.
    const io::TieModel model = io::TieModel::load(opt.positional[0]);
    const std::vector<TtLayerViewD> views = model.layers();

    const serve::ServerOptions sopts = serverOptionsFrom(opt, 8, 256);
    const serve::LoadGenOptions lopts = loadOptionsFrom(opt, 256);
    const std::vector<serve::Oracle> expected{serve::referenceOutputs(
        views, 0, 1, lopts.seed, lopts.requests)};

    // Live metrics: a loopback Prometheus endpoint and/or a periodic
    // exposition snapshot file. Either implies observability so the
    // serve.* series carry real values.
    serve::MetricsEndpoint metrics;
    const bool want_metrics =
        opt.has("metrics-port") || opt.has("metrics-snapshot");
    if (want_metrics) {
        obs::setEnabled(true);
        serve::MetricsEndpointOptions mopts;
        mopts.port = opt.num<int>("metrics-port", -1, 65535);
        mopts.snapshot_path = opt.get("metrics-snapshot", "");
        TIE_CHECK_ARG(metrics.start(mopts),
                      "cannot start the metrics endpoint");
        if (metrics.port() != 0)
            // endl: flushed before the load run so a scripted reader
            // (tests/cli_smoke.sh) can pick the port up immediately.
            std::cout << "metrics: listening on 127.0.0.1:"
                      << metrics.port() << std::endl;
    }

    // The flight recorder attributes per-phase latency; its
    // serve.phase.* distributions land in --stats-json reports and
    // the Prometheus exposition.
    obs::FlightRecorder::instance().start();

    serve::Server server(views, sopts);
    const serve::LoadGenReport rep = serve::runLoadGen(
        std::vector<serve::Server *>{&server}, lopts, &expected);

    obs::FlightRecorder::instance().stop();
    const double rss_peak_mib = usage(RUSAGE_SELF).rss_peak_mib;

    if (want_metrics) {
        const uint64_t linger =
            opt.num<uint64_t>("metrics-linger-ms", 0);
        if (linger > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(linger));
        metrics.stop();
    }

    if (obs::Session *s = obs::Session::current();
        s != nullptr && s->statsRequested()) {
        obs::JsonWriter w;
        w.beginObject();
        w.field("model", opt.positional[0]);
        w.field("open_loop", rep.open_loop);
        w.field("workers", static_cast<uint64_t>(sopts.workers));
        w.field("max_batch", static_cast<uint64_t>(sopts.max_batch));
        w.field("batch_timeout_us", sopts.batch_timeout_us);
        w.field("requests", static_cast<uint64_t>(lopts.requests));
        w.field("completed", static_cast<uint64_t>(rep.completed));
        w.field("rejected", static_cast<uint64_t>(rep.rejected));
        w.field("timed_out", static_cast<uint64_t>(rep.timed_out));
        w.field("mismatched", static_cast<uint64_t>(rep.mismatched));
        w.field("achieved_qps", rep.achieved_qps);
        w.field("latency_p50_us", rep.latency.p50);
        w.field("latency_p95_us", rep.latency.p95);
        w.field("latency_p99_us", rep.latency.p99);
        w.field("rss_peak_mib", rss_peak_mib);
        w.endObject();
        s->setExtra("serve_bench", w.str());
    }

    std::string model_desc = views.front().cfg.toString();
    if (views.size() > 1)
        model_desc = std::to_string(views.size()) + " layers, " +
                     std::to_string(views.front().cfg.inSize()) +
                     " -> " +
                     std::to_string(views.back().cfg.outSize());

    TextTable t("serve-bench report");
    t.header({"metric", "value"});
    t.row({"model", model_desc});
    t.row({"policy", std::to_string(sopts.workers) + " worker(s), "
                         "max batch " +
                         std::to_string(sopts.max_batch) + ", window " +
                         std::to_string(sopts.batch_timeout_us) +
                         " us"});
    t.row({"load", rep.open_loop
                       ? "open loop @ " +
                             TextTable::num(rep.offered_qps, 0) + " qps"
                       : "closed loop, " +
                             std::to_string(lopts.clients) +
                             " client(s)"});
    t.row({"requests", std::to_string(rep.submitted)});
    t.row({"completed / rejected / timed out",
           std::to_string(rep.completed) + " / " +
               std::to_string(rep.rejected) + " / " +
               std::to_string(rep.timed_out)});
    t.row({"throughput", TextTable::num(rep.achieved_qps, 0) + " req/s"});
    t.row({"latency p50 / p95 / p99",
           TextTable::num(rep.latency.p50, 1) + " / " +
               TextTable::num(rep.latency.p95, 1) + " / " +
               TextTable::num(rep.latency.p99, 1) + " us"});
    t.row({"queue wait p50 / p99",
           TextTable::num(rep.queue_wait.p50, 1) + " / " +
               TextTable::num(rep.queue_wait.p99, 1) + " us"});
    t.row({"service p50 / p99", TextTable::num(rep.service.p50, 1) +
                                    " / " +
                                    TextTable::num(rep.service.p99, 1) +
                                    " us"});
    t.row({"peak RSS", TextTable::num(rss_peak_mib, 1) + " MiB"});
    t.row({"bit-exact vs reference",
           rep.mismatched == 0 ? "yes" : "NO"});
    if (obs::enabled()) {
        // Flight-recorder attribution: which phase ate the tail.
        auto &reg = obs::StatRegistry::instance();
        for (const char *phase :
             {"queue", "batch", "gather", "infer", "scatter"}) {
            obs::Distribution &d = reg.distribution(
                "serve.phase." + std::string(phase) + "_us");
            if (d.snapshot().count == 0)
                continue;
            t.row({"phase " + std::string(phase) + " p50 / p99",
                   TextTable::num(d.percentile(50), 1) + " / " +
                       TextTable::num(d.percentile(99), 1) + " us"});
        }
    }
    t.print();
    return rep.mismatched == 0 ? 0 : 2;
}

/** Resolve the tie_worker binary: flag, env, or beside tie_cli. */
std::string
workerBinPath(const Options &opt)
{
    if (opt.has("worker-bin"))
        return opt.get("worker-bin");
    if (const char *env = std::getenv("TIE_WORKER_BIN");
        env != nullptr && env[0] != '\0')
        return env;
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        const std::string self(buf);
        const size_t slash = self.rfind('/');
        if (slash != std::string::npos)
            return self.substr(0, slash + 1) + "tie_worker";
    }
    return "tie_worker";
}

/** One spawned replica: the process plus where it listens. */
struct WorkerProc
{
    cluster::ChildProcess proc;
    cluster::Endpoint endpoint;
};

/**
 * Spawn tie_worker serving @p model on @p sock_path and wait for its
 * "ready <endpoint>" banner. False + diagnostic on spawn failure or
 * a missing/garbled banner.
 */
bool
spawnWorker(const std::string &bin, const std::string &model,
            const std::string &sock_path,
            const serve::ServerOptions &sopts, WorkerProc *out,
            std::string *error)
{
    const std::vector<std::string> argv = {
        bin,
        "--model", model,
        "--listen", "unix:" + sock_path,
        "--workers", std::to_string(sopts.workers),
        "--max-batch", std::to_string(sopts.max_batch),
        "--queue-cap", std::to_string(sopts.queue_capacity),
        "--batch-timeout-us",
        std::to_string(sopts.batch_timeout_us),
    };
    if (!cluster::spawnProcess(argv, &out->proc, error))
        return false;
    std::string line;
    // Generous: the worker CRC-checks the whole artifact and warms
    // its inference sessions before the banner.
    if (!cluster::readLine(out->proc.stdout_fd, &line,
                           /*timeout_ms=*/30000) ||
        line.rfind("ready ", 0) != 0 ||
        !cluster::parseEndpoint(line.substr(6), &out->endpoint,
                                error)) {
        if (error != nullptr && error->empty())
            *error = "worker printed no ready banner: \"" + line +
                     "\"";
        cluster::killProcess(out->proc, SIGKILL);
        cluster::waitProcess(out->proc);
        return false;
    }
    return true;
}

/**
 * Cluster bench: K tie_worker replicas and one router per tenant, a
 * closed-loop run through the load generator, every output verified
 * bit-exactly against the single-process oracle. The tenants are one
 * .tie model, or every artifact of a --zoo manifest (mixed traffic).
 */
int
cmdClusterBench(const Options &opt)
{
    const bool zoo = opt.has("zoo");
    TIE_CHECK_ARG(
        opt.positional.size() == (zoo ? 0u : 1u),
        "usage: tie_cli cluster-bench (<model.tie> | --zoo DIR)"
        " [--replicas K]"
        " [--requests R] [--clients C] [--seed s] [--deadline-us D]"
        " [--workers W] [--max-batch B] [--timeout-us T]"
        " [--queue-cap Q] [--chaos] [--chaos-kills N]"
        " [--p99-bound-us X] [--worker-bin PATH] [--sock-dir DIR]");
    const std::string zoo_dir = opt.get("zoo");
    std::vector<std::string> names, paths;
    if (zoo) {
        for (const tune::ZooEntry &e :
             tune::loadZooManifest(zoo_dir).entries) {
            names.push_back(e.name);
            paths.push_back(zoo_dir + "/" + e.file);
        }
    } else {
        names = paths = {opt.positional[0]};
    }
    const size_t n_models = paths.size();

    // Load every model here, before any worker is spawned: a file the
    // loader refuses fails the bench with its diagnostic instead of a
    // worker dying before "ready".
    std::vector<io::TieModel> models;
    for (const std::string &p : paths)
        models.push_back(io::TieModel::load(p));

    const size_t replicas = opt.num<size_t>("replicas", zoo ? 1 : 2);
    TIE_CHECK_ARG(replicas >= 1, "--replicas must be >= 1");
    const bool chaos = opt.has("chaos");
    const size_t chaos_kills = opt.num<size_t>("chaos-kills", chaos ? 1 : 0);
    TIE_CHECK_ARG(!zoo || chaos_kills == 0,
                  "--chaos applies to the single-model bench only");
    TIE_CHECK_ARG(!chaos || replicas >= 2,
                  "--chaos needs at least 2 replicas (a killed "
                  "replica's work fails over to a live one)");
    const double p99_bound = opt.num<double>("p99-bound-us", 0);

    const serve::ServerOptions sopts = serverOptionsFrom(opt, 4, 128);
    const serve::LoadGenOptions lopts = loadOptionsFrom(opt, 64);
    // runLoadGen's own check (routers report no RequestTiming), made
    // before the socket directory and the workers exist.
    serve::detail::checkLoad(lopts, n_models, nullptr, /*timed=*/false);

    // The single-process oracles: the same seeded request stream
    // through the same artifacts, batch-1. Every Done output from any
    // replica must match these bits exactly.
    std::vector<serve::Oracle> expected;
    for (size_t k = 0; k < n_models; ++k)
        expected.push_back(serve::referenceOutputs(
            models[k].layers(), k, n_models, lopts.seed,
            lopts.requests));

    std::string sock_dir = opt.get("sock-dir", "");
    const bool own_sock_dir = sock_dir.empty();
    if (own_sock_dir) {
        char tmpl[] = "/tmp/tie-cluster-XXXXXX";
        TIE_CHECK_ARG(::mkdtemp(tmpl) != nullptr,
                      "cannot create socket directory");
        sock_dir = tmpl;
    }
    const std::string bin = workerBinPath(opt);
    auto sockPath = [&](size_t k, size_t r) {
        return sock_dir + "/m" + std::to_string(k) + "w" +
               std::to_string(r) + ".sock";
    };

    // Every worker is spawned and reaped in between, so the children's
    // rusage delta covers all of their threads, exited ones included.
    const Usage usage0 = usage(RUSAGE_CHILDREN);
    std::vector<WorkerProc> workers(n_models * replicas);
    std::vector<std::unique_ptr<cluster::Router>> routers;
    for (size_t k = 0; k < n_models; ++k) {
        cluster::RouterOptions ropts;
        for (size_t r = 0; r < replicas; ++r) {
            WorkerProc &w = workers[k * replicas + r];
            std::string err;
            TIE_CHECK_ARG(spawnWorker(bin, paths[k], sockPath(k, r),
                                      sopts, &w, &err),
                          "cannot spawn ", names[k], " replica ", r,
                          ": ", err);
            ropts.workers.push_back(w.endpoint);
        }
        ropts.health_period_ms = 50; // fast failure detection for chaos
        routers.push_back(std::make_unique<cluster::Router>(ropts));
        std::string err;
        TIE_CHECK_ARG(routers.back()->start(&err), names[k],
                      " router start failed: ", err);
    }
    std::cout << n_models << " model(s) x " << replicas
              << " replica(s) ready on " << sock_dir << std::endl;

    // Chaos: SIGKILL replicas (round-robin) under load, restart each
    // on the same socket so the router's monitor re-adopts it. The
    // invariants asserted below must hold regardless of timing. Every
    // requested kill happens even if the load drains first — a smoke
    // run with a short load still exercises the kill/restart/re-adopt
    // path deterministically.
    size_t killed = 0, restarted = 0;
    std::thread chaos_thread;
    if (chaos_kills > 0) {
        chaos_thread = std::thread([&] {
            for (size_t k = 0; k < chaos_kills; ++k) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                WorkerProc &victim = workers[k % replicas];
                cluster::killProcess(victim.proc, SIGKILL);
                cluster::waitProcess(victim.proc);
                ++killed;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
                std::string serr;
                if (spawnWorker(bin, paths[0], sockPath(0, k % replicas),
                                sopts, &victim, &serr))
                    ++restarted;
                else
                    TIE_WARN("chaos: restart failed: ", serr);
            }
        });
    }

    std::vector<cluster::Router *> targets;
    for (const std::unique_ptr<cluster::Router> &r : routers)
        targets.push_back(r.get());
    // This process is the routers plus the load generator's clients.
    const Usage self0 = usage(RUSAGE_SELF);
    const serve::LoadGenReport rep =
        serve::runLoadGen(targets, lopts, &expected);
    const Usage self1 = usage(RUSAGE_SELF);
    if (chaos_thread.joinable())
        chaos_thread.join();

    cluster::RouterStats stats;
    for (const std::unique_ptr<cluster::Router> &r : routers) {
        r->drainWorkers(/*timeout_ms=*/5000);
        const cluster::RouterStats s = r->stats();
        stats.redispatched += s.redispatched;
        stats.worker_deaths += s.worker_deaths;
        stats.reconnects += s.reconnects;
        r->stop();
    }
    for (WorkerProc &w : workers) {
        // Drained workers exit on their own; closing stdin is the
        // EOF backstop for any that never saw the Drain.
        if (w.proc.stdin_fd >= 0) {
            ::close(w.proc.stdin_fd);
            w.proc.stdin_fd = -1;
        }
        cluster::waitProcess(w.proc);
    }
    // Each worker unlinked its socket on exit, so a directory made
    // here is empty again.
    if (own_sock_dir)
        ::rmdir(sock_dir.c_str());
    const Usage usage1 = usage(RUSAGE_CHILDREN);
    const double per_req =
        1.0 / static_cast<double>(std::max<size_t>(rep.submitted, 1));
    const double worker_cpu_us = (usage1.cpu_us - usage0.cpu_us) * per_req;
    const double worker_ctx =
        (usage1.ctx_switches - usage0.ctx_switches) * per_req;
    const double router_cpu_us = (self1.cpu_us - self0.cpu_us) * per_req;
    const double router_ctx =
        (self1.ctx_switches - self0.ctx_switches) * per_req;

    // The chaos contract. "Lost" = accepted but never resolved;
    // shed/timed-out requests are explicit outcomes, not losses.
    const size_t resolved =
        rep.completed + rep.rejected + rep.timed_out;
    const bool none_lost = resolved == rep.submitted;
    const bool bit_exact = rep.mismatched == 0;
    const bool p99_ok =
        p99_bound <= 0 || rep.latency.p99 <= p99_bound;

    if (obs::Session *s = obs::Session::current();
        s != nullptr && s->statsRequested()) {
        obs::JsonWriter w;
        w.beginObject();
        w.field(zoo ? "zoo" : "model", zoo ? zoo_dir : paths[0]);
        w.field("replicas", static_cast<uint64_t>(replicas));
        w.field("chaos_kills", static_cast<uint64_t>(killed));
        w.field("chaos_restarts", static_cast<uint64_t>(restarted));
        w.field("requests", static_cast<uint64_t>(rep.submitted));
        w.field("completed", static_cast<uint64_t>(rep.completed));
        w.field("rejected", static_cast<uint64_t>(rep.rejected));
        w.field("timed_out", static_cast<uint64_t>(rep.timed_out));
        w.field("mismatched", static_cast<uint64_t>(rep.mismatched));
        w.field("redispatched", stats.redispatched);
        w.field("worker_deaths", stats.worker_deaths);
        w.field("reconnects", stats.reconnects);
        w.field("achieved_qps", rep.achieved_qps);
        w.field("latency_p50_us", rep.latency.p50);
        w.field("latency_p99_us", rep.latency.p99);
        w.field("worker_cpu_us_per_request", worker_cpu_us);
        w.field("worker_ctx_switches_per_request", worker_ctx);
        w.field("router_cpu_us_per_request", router_cpu_us);
        w.field("router_ctx_switches_per_request", router_ctx);
        w.field("worker_rss_peak_mib", usage1.rss_peak_mib);
        w.field("none_lost", none_lost);
        serve::appendTenantsJson(w, rep, names);
        w.endObject();
        s->setExtra("cluster_bench", w.str());
    }

    if (n_models > 1) {
        TextTable t("tenants: " + zoo_dir);
        t.header({"model", "done/rej/to", "mismatch", "p50 us",
                  "p99 us"});
        for (size_t k = 0; k < n_models; ++k) {
            const serve::LoadGenReport &r = rep.per_tenant[k];
            t.row({names[k],
                   std::to_string(r.completed) + "/" +
                       std::to_string(r.rejected) + "/" +
                       std::to_string(r.timed_out),
                   std::to_string(r.mismatched),
                   TextTable::num(r.latency.p50, 1),
                   TextTable::num(r.latency.p99, 1)});
        }
        t.print();
    }

    TextTable t("cluster-bench report");
    t.header({"metric", "value"});
    t.row({"model", zoo ? zoo_dir + " (" + std::to_string(n_models) +
                              " models, mixed)"
                        : paths[0]});
    t.row({"replicas", std::to_string(replicas) + " x " +
                           std::to_string(sopts.workers) +
                           " server thread(s)" +
                           (zoo ? " per model" : "")});
    t.row({"load", "closed loop, " + std::to_string(lopts.clients) +
                       " client(s), " +
                       std::to_string(lopts.requests) + " requests"});
    if (chaos_kills > 0)
        t.row({"chaos", std::to_string(killed) + " kill(s), " +
                            std::to_string(restarted) +
                            " restart(s)"});
    t.row({"completed / rejected / timed out",
           std::to_string(rep.completed) + " / " +
               std::to_string(rep.rejected) + " / " +
               std::to_string(rep.timed_out)});
    t.row({"redispatched / deaths / reconnects",
           std::to_string(stats.redispatched) + " / " +
               std::to_string(stats.worker_deaths) + " / " +
               std::to_string(stats.reconnects)});
    t.row({"throughput",
           TextTable::num(rep.achieved_qps, 0) + " req/s"});
    t.row({"latency p50 / p95 / p99",
           TextTable::num(rep.latency.p50, 1) + " / " +
               TextTable::num(rep.latency.p95, 1) + " / " +
               TextTable::num(rep.latency.p99, 1) + " us"});
    t.row({"worker CPU / context switches per request",
           TextTable::num(worker_cpu_us, 1) + " us / " +
               TextTable::num(worker_ctx, 2)});
    t.row({"router CPU / context switches per request",
           TextTable::num(router_cpu_us, 1) + " us / " +
               TextTable::num(router_ctx, 2)});
    t.row({"worker peak RSS (largest)",
           TextTable::num(usage1.rss_peak_mib, 1) + " MiB"});
    t.row({"all requests resolved", none_lost ? "yes" : "NO"});
    t.row({"bit-exact vs single-process reference",
           bit_exact ? "yes" : "NO"});
    if (p99_bound > 0)
        t.row({"p99 within bound", p99_ok ? "yes" : "NO"});
    t.print();

    if (!none_lost || !bit_exact)
        return 2;
    return p99_ok ? 0 : 3;
}

/** Pretty-print any BENCH_*.json (google-benchmark or obs session). */
int
cmdStats(const Options &opt)
{
    TIE_CHECK_ARG(opt.positional.size() == 1,
                  "usage: tie_cli stats <BENCH_*.json>");
    std::ifstream is(opt.positional[0], std::ios::binary);
    TIE_CHECK_ARG(is.is_open(), "cannot open ", opt.positional[0]);
    std::ostringstream ss;
    ss << is.rdbuf();
    std::string err;
    const obs::JsonValue doc = obs::parseJson(ss.str(), &err);
    TIE_CHECK_ARG(doc.type == obs::JsonValue::Type::Object,
                  opt.positional[0], " is not a JSON report: ", err);

    if (const obs::JsonValue *benches = doc.find("benchmarks");
        benches != nullptr &&
        benches->type == obs::JsonValue::Type::Array) {
        // google-benchmark schema (bench/micro_kernels.cc).
        TextTable t(opt.positional[0] + " (google-benchmark)");
        t.header({"benchmark", "time", "cpu", "unit", "iterations"});
        for (const obs::JsonValue &b : benches->array) {
            const obs::JsonValue *name = b.find("name");
            if (name == nullptr)
                continue;
            const obs::JsonValue *unit = b.find("time_unit");
            t.row({name->string, TextTable::num(b.num("real_time")),
                   TextTable::num(b.num("cpu_time")),
                   unit != nullptr ? unit->string : "?",
                   std::to_string(b.u64("iterations"))});
        }
        t.print();
        return 0;
    }

    // obs::Session schema: recorded tables, serve points, registry.
    if (const obs::JsonValue *name = doc.find("name"))
        std::cout << "report: " << name->string << "\n\n";

    if (const obs::JsonValue *tables = doc.find("tables");
        tables != nullptr &&
        tables->type == obs::JsonValue::Type::Array) {
        for (const obs::JsonValue &tj : tables->array) {
            const obs::JsonValue *title = tj.find("title");
            TextTable t(title != nullptr ? title->string : "");
            std::vector<std::string> cols;
            if (const obs::JsonValue *cj = tj.find("columns"))
                for (const obs::JsonValue &c : cj->array)
                    cols.push_back(c.string);
            t.header(cols);
            if (const obs::JsonValue *rj = tj.find("rows"))
                for (const obs::JsonValue &row : rj->array) {
                    std::vector<std::string> cells;
                    for (const obs::JsonValue &cell : row.array)
                        cells.push_back(cell.string);
                    t.row(cells);
                }
            t.print();
            std::cout << "\n";
        }
    }

    if (const obs::JsonValue *serve = doc.find("serve")) {
        if (const obs::JsonValue *points = serve->find("points");
            points != nullptr &&
            points->type == obs::JsonValue::Type::Array) {
            TextTable t("serve sweep points");
            t.header({"point", "done/rej/to", "req/s", "p50 us",
                      "p95 us", "p99 us"});
            for (const obs::JsonValue &p : points->array) {
                const obs::JsonValue *label = p.find("label");
                t.row({label != nullptr ? label->string : "?",
                       std::to_string(p.u64("completed")) + "/" +
                           std::to_string(p.u64("rejected")) + "/" +
                           std::to_string(p.u64("timed_out")),
                       TextTable::num(p.num("achieved_qps"), 0),
                       TextTable::num(p.num("latency_p50_us"), 1),
                       TextTable::num(p.num("latency_p95_us"), 1),
                       TextTable::num(p.num("latency_p99_us"), 1)});
            }
            t.print();
            std::cout << "\n";
        }
    }

    if (const obs::JsonValue *stats = doc.find("stats")) {
        if (const obs::JsonValue *counters = stats->find("counters");
            counters != nullptr && !counters->object.empty()) {
            TextTable t("counters");
            t.header({"name", "value"});
            for (const auto &kv : counters->object)
                t.row({kv.first,
                       std::to_string(static_cast<uint64_t>(
                           kv.second.number))});
            t.print();
            std::cout << "\n";
        }
        if (const obs::JsonValue *gauges = stats->find("gauges");
            gauges != nullptr && !gauges->object.empty()) {
            TextTable t("gauges");
            t.header({"name", "value"});
            for (const auto &kv : gauges->object)
                t.row({kv.first,
                       std::to_string(static_cast<int64_t>(
                           kv.second.number))});
            t.print();
            std::cout << "\n";
        }
        if (const obs::JsonValue *dists =
                stats->find("distributions");
            dists != nullptr && !dists->object.empty()) {
            TextTable t("distributions");
            t.header({"name", "count", "mean", "p50", "p95", "p99",
                      "max"});
            for (const auto &kv : dists->object)
                t.row({kv.first, std::to_string(kv.second.u64("count")),
                       TextTable::num(kv.second.num("mean")),
                       TextTable::num(kv.second.num("p50")),
                       TextTable::num(kv.second.num("p95")),
                       TextTable::num(kv.second.num("p99")),
                       TextTable::num(kv.second.num("max"))});
            t.print();
        }
    }
    return 0;
}

void
usage()
{
    std::cout
        << "tie_cli — TT-format model tool\n"
           "  synth <out.tie> --m 4,4,4 --n 4,8,8 [--rank 4] [--seed]\n"
           "  decompose <dense.f64> <out.tie> --m .. --n .. [--rank]\n"
           "  save-model <out.tie> (--from a.tie[,b.tie..] |"
           " --m .. --n ..) [--fxp]\n"
           "  info <model.tie>\n"
           "  round <in.tie> <out.tie> --rank r [--eps e]\n"
           "  tune <out_dim> <in_dim> [--seed][--min-d][--max-d]"
           "[--ranks 1,2,4,8]\n"
           "              [--min-compression][--max-mults]"
           "[--max-working][--max-params]\n"
           "              [--max-evals][--epochs][--classes]"
           "[--data images|video]\n"
           "              [--sim run|analytic|off][--measure]"
           "[--pareto-out FILE]\n"
           "              rank/shape autotune: cost-model pruning, "
           "trained evaluation,\n"
           "              Pareto frontier -> BENCH_pareto.json "
           "(docs/autotuning.md)\n"
           "  zoo-build <dir> [--budgets fast:0.25,accurate:0]"
           "[--families mlp,cnn,lstm,gru]\n"
           "              [--no-fxp] + tune knobs\n"
           "              build the per-budget .tie model zoo + "
           "zoo.json manifest\n"
           "  simulate <model.tie> [--npe][--nmac][--freq][--batch]"
           "[--relu]\n"
           "  serve-bench <model.tie> [--workers][--max-batch]"
           "[--timeout-us]\n"
           "              [--queue-cap][--requests][--clients|--qps]"
           "[--deadline-us]\n"
           "              [--metrics-port P][--metrics-snapshot FILE]"
           "[--metrics-linger-ms L]\n"
           "  cluster-bench (<model.tie> | --zoo DIR) [--replicas K]"
           "[--requests R]\n"
           "              [--clients C][--chaos][--chaos-kills N]"
           "[--p99-bound-us X]\n"
           "              [--worker-bin PATH]\n"
           "              spawn tie_worker processes, shard load "
           "across them,\n"
           "              verify bit-exactness (and chaos recovery); "
           "--zoo drives\n"
           "              mixed multi-tenant traffic over a model zoo "
           "(docs/cluster.md)\n"
           "  stats <BENCH_*.json>   pretty-print any bench report\n"
           "observability (any command; also TIE_STATS_JSON/TIE_TRACE"
           " env):\n"
           "  --stats-json[=path]   machine-readable JSON report\n"
           "  --trace-out[=path]    Chrome trace (chrome://tracing)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // Strips --stats-json/--trace-out and enables observability when
    // either (or the matching env var) requests output; the files are
    // written when the session goes out of scope.
    obs::Session obs_session("tie_cli", &argc, argv);

    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    Options opt = parseArgs(argc, argv, 2);
    if (cmd == "synth")
        return cmdSynth(opt);
    if (cmd == "save-model")
        return cmdSaveModel(opt);
    if (cmd == "decompose")
        return cmdDecompose(opt);
    if (cmd == "info")
        return cmdInfo(opt);
    if (cmd == "round")
        return cmdRound(opt);
    if (cmd == "tune")
        return cmdTune(opt);
    if (cmd == "zoo-build")
        return cmdZooBuild(opt);
    if (cmd == "simulate")
        return cmdSimulate(opt);
    if (cmd == "serve-bench")
        return cmdServeBench(opt);
    if (cmd == "cluster-bench")
        return cmdClusterBench(opt);
    if (cmd == "stats")
        return cmdStats(opt);
    usage();
    return 1;
}
