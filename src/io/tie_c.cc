/**
 * @file
 * Implementation of the C FFI (include/tie_c.h) over the artifact
 * loader, the inference sessions and the model registry.
 */

#include "tie_c.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "io/tie_format.hh"
#include "serve/model_registry.hh"
#include "tt/infer_session.hh"
#include "tt/tt_matrix.hh"

using namespace tie;

namespace {

thread_local std::string g_last_error;

tie_status
fail(tie_status st, std::string msg)
{
    g_last_error = std::move(msg);
    return st;
}

} // namespace

extern "C" {

const char *
tie_last_error(void)
{
    return g_last_error.c_str();
}

/**
 * A model handle: a validated artifact, mmap-backed when loaded and
 * an in-memory image when synthesized. The artifact is
 * shared-ownership under the hood, so sessions and registries stay
 * valid after the handle itself is freed.
 */
struct tie_model
{
    io::TieModel artifact;
};

tie_status
tie_model_load(const char *path, tie_model **out)
{
    if (path == nullptr || out == nullptr)
        return fail(TIE_ERR_ARG, "tie_model_load: NULL argument");
    *out = nullptr;
    io::TieModel m;
    std::string err;
    if (!io::TieModel::tryLoad(path, &m, &err))
        return fail(TIE_ERR_IO, err);
    auto *h = new tie_model();
    h->artifact = std::move(m);
    *out = h;
    return TIE_OK;
}

tie_status
tie_model_synth(const size_t *m, const size_t *n, size_t d, size_t rank,
                uint64_t seed, tie_model **out)
{
    if (m == nullptr || n == nullptr || out == nullptr)
        return fail(TIE_ERR_ARG, "tie_model_synth: NULL argument");
    *out = nullptr;
    if (d < 1 || d > 64)
        return fail(TIE_ERR_ARG, "tie_model_synth: d out of range");
    constexpr size_t kMaxFactor = size_t(1) << 20;
    for (size_t k = 0; k < d; ++k)
        if (m[k] < 1 || n[k] < 1 || m[k] > kMaxFactor ||
            n[k] > kMaxFactor)
            return fail(TIE_ERR_ARG,
                        "tie_model_synth: factor out of range");
    if (rank < 1 || rank > kMaxFactor)
        return fail(TIE_ERR_ARG, "tie_model_synth: rank out of range");

    TtLayerConfig cfg = TtLayerConfig::withRank(
        std::vector<size_t>(m, m + d), std::vector<size_t>(n, n + d),
        rank);
    Rng rng(seed);
    const TtMatrix tt = TtMatrix::random(cfg, rng);
    auto *h = new tie_model();
    h->artifact = io::TieModel::parse(
        io::serializeTieModel({io::makeLayerSpec(tt)}));
    *out = h;
    return TIE_OK;
}

tie_status
tie_model_save(const tie_model *model, const char *path)
{
    if (model == nullptr || path == nullptr)
        return fail(TIE_ERR_ARG, "tie_model_save: NULL argument");
    const io::TieModel &a = model->artifact;
    std::vector<io::TieLayerSpec> specs;
    specs.reserve(a.layerCount());
    for (size_t i = 0; i < a.layerCount(); ++i) {
        io::TieLayerSpec s;
        s.f64 = a.layer(i);
        if (a.hasFxp())
            s.fxp = a.fxpLayer(i);
        specs.push_back(std::move(s));
    }
    io::saveTieModel(specs, path);
    return TIE_OK;
}

void
tie_model_free(tie_model *model)
{
    delete model;
}

size_t
tie_model_layer_count(const tie_model *model)
{
    if (model == nullptr)
        return 0;
    return model->artifact.layerCount();
}

size_t
tie_model_in_size(const tie_model *model)
{
    if (model == nullptr)
        return 0;
    return model->artifact.inSize();
}

size_t
tie_model_out_size(const tie_model *model)
{
    if (model == nullptr)
        return 0;
    return model->artifact.outSize();
}

int
tie_model_has_fxp(const tie_model *model)
{
    if (model == nullptr)
        return 0;
    return model->artifact.hasFxp() ? 1 : 0;
}

/**
 * Session handle: one InferSession per layer plus ping-pong staging,
 * all warmed at max_batch on creation. Shares weight ownership with
 * the model handle it was created from.
 */
struct tie_session
{
    io::TieModel artifact; ///< pins the weights
    std::vector<InferSessionD> chain;
    std::vector<double> buf_a; ///< max_width * max_batch each
    std::vector<double> buf_b;
    size_t max_batch = 0;
    size_t in_size = 0;
    size_t out_size = 0;

    void
    run(const double *x, size_t batch, double *y)
    {
        const double *cur = x;
        double *a = buf_a.data();
        double *b = buf_b.data();
        for (size_t i = 0; i < chain.size(); ++i) {
            double *dst = i + 1 == chain.size() ? y : a;
            chain[i].runPtr(cur, batch, dst);
            cur = dst;
            std::swap(a, b);
        }
    }
};

tie_status
tie_session_create(const tie_model *model, size_t max_batch,
                   tie_session **out)
{
    if (model == nullptr || out == nullptr)
        return fail(TIE_ERR_ARG, "tie_session_create: NULL argument");
    *out = nullptr;
    if (max_batch < 1)
        return fail(TIE_ERR_ARG,
                    "tie_session_create: max_batch must be >= 1");

    auto s = std::make_unique<tie_session>();
    s->artifact = model->artifact;
    const std::vector<TtLayerViewD> layers = s->artifact.layers();
    s->chain.reserve(layers.size());
    size_t max_width = layers.front().cfg.inSize();
    for (const TtLayerViewD &l : layers) {
        s->chain.push_back(InferSessionD(l));
        max_width = std::max(max_width, l.cfg.outSize());
    }
    s->max_batch = max_batch;
    s->in_size = layers.front().cfg.inSize();
    s->out_size = layers.back().cfg.outSize();
    s->buf_a.assign(max_width * max_batch, 0.0);
    s->buf_b.assign(max_width * max_batch, 0.0);

    // Warm every session arena at max_batch so tie_session_infer is
    // allocation-free for all batches 1..max_batch.
    std::vector<double> x(s->in_size * max_batch, 0.0);
    std::vector<double> y(s->out_size * max_batch, 0.0);
    s->run(x.data(), max_batch, y.data());

    *out = s.release();
    return TIE_OK;
}

tie_status
tie_session_infer(tie_session *session, const double *x, size_t batch,
                  double *y)
{
    if (session == nullptr || x == nullptr || y == nullptr)
        return fail(TIE_ERR_ARG, "tie_session_infer: NULL argument");
    if (batch < 1 || batch > session->max_batch)
        return fail(TIE_ERR_ARG,
                    "tie_session_infer: batch outside [1, max_batch]");
    session->run(x, batch, y);
    return TIE_OK;
}

void
tie_session_free(tie_session *session)
{
    delete session;
}

/** Registry handle: the C++ registry with default server options. */
struct tie_registry
{
    serve::ModelRegistry reg;
};

tie_status
tie_registry_create(tie_registry **out)
{
    if (out == nullptr)
        return fail(TIE_ERR_ARG, "tie_registry_create: NULL argument");
    *out = new tie_registry();
    return TIE_OK;
}

tie_status
tie_registry_publish(tie_registry *reg, const char *name,
                     const tie_model *model, uint64_t *version_out)
{
    if (reg == nullptr || name == nullptr || model == nullptr)
        return fail(TIE_ERR_ARG, "tie_registry_publish: NULL argument");
    if (name[0] == '\0')
        return fail(TIE_ERR_ARG, "tie_registry_publish: empty name");
    const uint64_t version = reg->reg.publish(name, model->artifact);
    if (version_out != nullptr)
        *version_out = version;
    return TIE_OK;
}

tie_status
tie_registry_unload(tie_registry *reg, const char *name)
{
    if (reg == nullptr || name == nullptr)
        return fail(TIE_ERR_ARG, "tie_registry_unload: NULL argument");
    if (!reg->reg.unload(name))
        return fail(TIE_ERR_STATE,
                    strCat("no model named '", name, "' is registered"));
    return TIE_OK;
}

tie_status
tie_registry_infer(tie_registry *reg, const char *name, const double *x,
                   size_t in_size, double *y, size_t out_size)
{
    if (reg == nullptr || name == nullptr || x == nullptr ||
        y == nullptr)
        return fail(TIE_ERR_ARG, "tie_registry_infer: NULL argument");
    // The sized trySubmit validates in/out against the entry it
    // actually submits to, so a hot-swap racing this call can never
    // make the queue read past the caller's in_size doubles.
    serve::RegistryTicket t;
    serve::ModelInfo mi;
    if (!reg->reg.trySubmit(name, x, in_size, out_size, 0, &t, &mi)) {
        if (mi.name.empty())
            return fail(TIE_ERR_STATE,
                        strCat("no model named '", name,
                               "' is registered"));
        return fail(TIE_ERR_ARG,
                    strCat("tie_registry_infer: '", name, "' is ",
                           mi.in_size, " -> ", mi.out_size, ", got ",
                           in_size, " -> ", out_size));
    }
    std::vector<double> out;
    const serve::RequestStatus st = reg->reg.wait(t, &out);
    if (st != serve::RequestStatus::Done)
        return fail(TIE_ERR_STATE,
                    "tie_registry_infer: request was shed "
                    "(queue full or deadline expired)");
    TIE_REQUIRE(out.size() == out_size,
                "registry returned a mismatched output size despite "
                "the size-checked submit");
    std::memcpy(y, out.data(), out_size * sizeof(double));
    return TIE_OK;
}

uint64_t
tie_registry_version(tie_registry *reg, const char *name)
{
    if (reg == nullptr || name == nullptr)
        return 0;
    serve::ModelInfo mi;
    return reg->reg.tryInfo(name, &mi) ? mi.version : 0;
}

void
tie_registry_free(tie_registry *reg)
{
    delete reg;
}

} // extern "C"
