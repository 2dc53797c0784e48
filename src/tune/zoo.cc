#include "tune/zoo.hh"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "io/tie_format.hh"
#include "obs/json.hh"
#include "serve/model_registry.hh"

namespace tie {
namespace tune {

namespace {

bool
safeName(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok)
            return false;
    }
    return true;
}

std::string
readFileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    TIE_CHECK_ARG(in.good(), "cannot open ", path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/**
 * The one conversion of a manifest number to a count: a JSON number
 * that is a whole value in [0, 2^53] (exact in a double, so the cast
 * is defined). fatal() otherwise.
 */
size_t
jsonCount(const obs::JsonValue *v, const char *key)
{
    TIE_CHECK_ARG(v && v->type == obs::JsonValue::Type::Number &&
                      v->number >= 0 && v->number <= 0x1p53 &&
                      v->number == std::floor(v->number),
                  "zoo.json \"", key,
                  "\" must be a whole number in [0, 2^53]");
    return static_cast<size_t>(v->number);
}

std::vector<size_t>
jsonFactors(const obs::JsonValue &v, const char *key)
{
    const obs::JsonValue *arr = v.find(key);
    TIE_CHECK_ARG(arr && arr->type == obs::JsonValue::Type::Array,
                  "zoo.json model lacks array \"", key, "\"");
    std::vector<size_t> out;
    for (const auto &e : arr->array)
        out.push_back(jsonCount(&e, key));
    return out;
}

std::string
jsonString(const obs::JsonValue &v, const char *key)
{
    const obs::JsonValue *s = v.find(key);
    TIE_CHECK_ARG(s && s->type == obs::JsonValue::Type::String,
                  "zoo.json model lacks string \"", key, "\"");
    return s->string;
}

} // namespace

std::vector<ZooFamily>
defaultZooFamilies()
{
    // The paper's four workload classes (Sec. 5.1), scaled down to
    // autotuner-friendly interfaces: an FC layer (MLP), a CONV-lowered
    // GEMM (wider input), and LSTM/GRU gate stacks for a hidden size
    // of 16 (4H and 3H output rows) fed per-frame video features.
    return {
        {"mlp", 64, 64, DataKind::Images},
        {"cnn", 64, 128, DataKind::Images},
        {"lstm", 64, 64, DataKind::Video},
        {"gru", 48, 64, DataKind::Video},
    };
}

ZooManifest
buildZoo(const std::string &dir, const ZooOptions &opts)
{
    TIE_CHECK_ARG(!opts.families.empty(), "zoo needs at least one family");
    TIE_CHECK_ARG(!opts.budgets.empty(), "zoo needs at least one budget");
    for (const auto &f : opts.families)
        TIE_CHECK_ARG(safeName(f.name), "zoo family name \"", f.name,
                      "\" must be [a-z0-9_]+");
    for (const auto &b : opts.budgets)
        TIE_CHECK_ARG(safeName(b.name) && b.mult_cap_frac >= 0.0,
                      "zoo budget name \"", b.name,
                      "\" must be [a-z0-9_]+ with cap frac >= 0");

    std::filesystem::create_directories(dir);

    ZooManifest manifest;
    for (const auto &family : opts.families) {
        TuneOptions topts = opts.tune;
        topts.data = family.data;
        const TuneReport report =
            autotune(family.out_dim, family.in_dim, topts);

        for (const auto &budget : opts.budgets) {
            const size_t dense_mults =
                family.out_dim * family.in_dim;
            const size_t cap =
                budget.mult_cap_frac > 0.0
                    ? static_cast<size_t>(budget.mult_cap_frac *
                                          static_cast<double>(
                                              dense_mults))
                    : 0;
            const auto &won =
                report.candidates[selectWinner(report, cap)];

            ZooEntry entry;
            entry.name = family.name + "-" + budget.name;
            entry.family = family.name;
            entry.budget = budget.name;
            entry.file = entry.name + ".tie";
            entry.config = won.config;
            entry.accuracy = won.accuracy;
            entry.compression = won.compression;
            entry.mults = won.mults;
            entry.sim_cycles = won.sim_cycles;
            entry.fxp = opts.fxp_twin;

            const std::string path = dir + "/" + entry.file;
            if (opts.fxp_twin) {
                const auto fxp = TtMatrixFxp::quantizeAuto(
                    won.trained, FxpFormat{16, 8});
                io::saveTieModel({io::makeLayerSpec(won.trained, fxp)},
                                 path);
            } else {
                io::saveTieModel(won.trained, path);
            }
            manifest.entries.push_back(std::move(entry));
        }
    }

    std::ofstream out(dir + "/zoo.json",
                      std::ios::binary | std::ios::trunc);
    TIE_CHECK_ARG(out.good(), "cannot write ", dir, "/zoo.json");
    out << manifestJson(manifest) << "\n";
    TIE_CHECK_ARG(out.good(), "failed writing ", dir, "/zoo.json");
    return manifest;
}

std::string
manifestJson(const ZooManifest &manifest)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("name", "zoo");
    w.key("models").beginArray();
    for (const auto &e : manifest.entries) {
        w.beginObject();
        w.field("model", e.name);
        w.field("family", e.family);
        w.field("budget", e.budget);
        w.field("file", e.file);
        w.field("out_size",
                static_cast<uint64_t>(e.config.outSize()));
        w.field("in_size", static_cast<uint64_t>(e.config.inSize()));
        auto factors = [&](const char *k, const std::vector<size_t> &v) {
            w.key(k).beginArray();
            for (size_t f : v)
                w.value(static_cast<uint64_t>(f));
            w.endArray();
        };
        factors("m", e.config.m);
        factors("n", e.config.n);
        factors("r", e.config.r);
        w.field("accuracy", e.accuracy);
        w.field("compression", e.compression);
        w.field("mults", static_cast<uint64_t>(e.mults));
        w.field("sim_cycles", e.sim_cycles);
        w.field("fxp", e.fxp);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

ZooManifest
loadZooManifest(const std::string &dir)
{
    const std::string path = dir + "/zoo.json";
    std::string err;
    const obs::JsonValue doc = obs::parseJson(readFileText(path), &err);
    TIE_CHECK_ARG(doc.type == obs::JsonValue::Type::Object, path,
                  " is not a JSON object: ", err);
    const obs::JsonValue *models = doc.find("models");
    TIE_CHECK_ARG(models &&
                      models->type == obs::JsonValue::Type::Array,
                  path, " lacks a \"models\" array");

    ZooManifest manifest;
    for (const auto &m : models->array) {
        ZooEntry e;
        e.name = jsonString(m, "model");
        e.family = jsonString(m, "family");
        e.budget = jsonString(m, "budget");
        e.file = jsonString(m, "file");
        e.config.m = jsonFactors(m, "m");
        e.config.n = jsonFactors(m, "n");
        e.config.r = jsonFactors(m, "r");
        e.config.validate();
        e.accuracy = m.num("accuracy");
        e.compression = m.num("compression");
        e.mults = jsonCount(m.find("mults"), "mults");
        e.sim_cycles = jsonCount(m.find("sim_cycles"), "sim_cycles");
        const obs::JsonValue *fxp = m.find("fxp");
        e.fxp = fxp && fxp->boolean;
        manifest.entries.push_back(std::move(e));
    }
    TIE_CHECK_ARG(!manifest.entries.empty(), path, " lists no models");
    return manifest;
}

std::vector<std::string>
publishZoo(const std::string &dir, serve::ModelRegistry &registry)
{
    const ZooManifest manifest = loadZooManifest(dir);
    std::vector<std::string> names;
    names.reserve(manifest.entries.size());
    for (const auto &e : manifest.entries) {
        registry.publishFile(e.name, dir + "/" + e.file);
        names.push_back(e.name);
    }
    return names;
}

} // namespace tune
} // namespace tie
