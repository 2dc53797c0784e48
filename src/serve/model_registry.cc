#include "serve/model_registry.hh"

#include <utility>

#include "common/logging.hh"

namespace tie {
namespace serve {

/**
 * One published (name, version): the artifact plus the warmed server
 * over it. Tickets and the registry map share the entry; the last
 * reference drops the server (already stopped by then) and with it
 * the weight storage.
 */
struct ModelRegistry::Entry
{
    uint64_t version = 0;
    io::TieModel artifact; ///< the weights the server's views alias
    std::unique_ptr<Server> server;
};

ModelRegistry::ModelRegistry(ServerOptions opts) : opts_(opts) {}

ModelRegistry::~ModelRegistry()
{
    // Collect under the lock, drain outside it: stop() blocks on
    // worker joins and must not hold mu_ while tickets complete.
    std::map<std::string, std::shared_ptr<Entry>> all;
    {
        std::lock_guard<std::mutex> lk(mu_);
        all.swap(models_);
    }
    for (auto &kv : all)
        kv.second->server->stop();
}

uint64_t
ModelRegistry::publishEntry(const std::string &name,
                            std::shared_ptr<Entry> entry)
{
    std::shared_ptr<Entry> displaced;
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::shared_ptr<Entry> &slot = models_[name];
        entry->version = slot != nullptr ? slot->version + 1 : 1;
        displaced = std::move(slot);
        slot = entry;
        // Stamp the flight-recorder identity now that the version is
        // known (it is assigned here, after Server construction).
        uint16_t &model_id = model_ids_[name];
        if (model_id == 0)
            model_id = next_model_id_++;
        entry->server->setFlightTag(
            model_id, static_cast<uint16_t>(entry->version));
    }
    // The new version is live; drain the old one. Requests that raced
    // the swap onto the displaced server were *accepted* and are run
    // to completion here — their tickets pin the entry.
    if (displaced != nullptr)
        displaced->server->stop();
    return entry->version;
}

uint64_t
ModelRegistry::publish(const std::string &name, io::TieModel model)
{
    TIE_CHECK_ARG(model.valid(),
                  "cannot publish an empty TieModel as '", name, "'");
    auto entry = std::make_shared<Entry>();
    entry->artifact = std::move(model);
    // The server's views alias the artifact the entry keeps alive.
    entry->server = std::make_unique<Server>(entry->artifact.layers(),
                                             opts_);
    return publishEntry(name, std::move(entry));
}

uint64_t
ModelRegistry::publishFile(const std::string &name,
                           const std::string &path)
{
    uint64_t version = 0;
    std::string error;
    TIE_CHECK_ARG(tryPublishFile(name, path, &version, &error),
                  "publishing '", name, "' from ", path, ": ", error);
    return version;
}

bool
ModelRegistry::tryPublishFile(const std::string &name,
                              const std::string &path,
                              uint64_t *version, std::string *error)
{
    io::TieModel m;
    if (!io::TieModel::tryLoad(path, &m, error))
        return false;
    const uint64_t v = publish(name, std::move(m));
    if (version != nullptr)
        *version = v;
    return true;
}

bool
ModelRegistry::unload(const std::string &name)
{
    std::shared_ptr<Entry> displaced;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = models_.find(name);
        if (it == models_.end())
            return false;
        displaced = std::move(it->second);
        models_.erase(it);
    }
    displaced->server->stop();
    return true;
}

std::shared_ptr<ModelRegistry::Entry>
ModelRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = models_.find(name);
    return it != models_.end() ? it->second : nullptr;
}

RegistryTicket
ModelRegistry::submit(const std::string &name, const double *x,
                      uint64_t deadline_us)
{
    RegistryTicket t;
    TIE_CHECK_ARG(trySubmit(name, x, deadline_us, &t),
                  "no model named '", name, "' is registered");
    return t;
}

bool
ModelRegistry::trySubmit(const std::string &name, const double *x,
                         uint64_t deadline_us, RegistryTicket *out)
{
    std::shared_ptr<Entry> entry = find(name);
    if (entry == nullptr)
        return false;
    out->ticket_ = entry->server->submit(x, deadline_us);
    out->server_ = entry->server.get();
    out->version_ = entry->version;
    out->entry_ = std::move(entry);
    return true;
}

bool
ModelRegistry::trySubmit(const std::string &name, const double *x,
                         size_t in_size, size_t out_size,
                         uint64_t deadline_us, RegistryTicket *out,
                         ModelInfo *info)
{
    std::shared_ptr<Entry> entry = find(name);
    if (entry == nullptr)
        return false;
    if (info != nullptr)
        *info = infoOf(name, *entry);
    // Checked against the entry we are about to submit to, not a
    // separate earlier lookup: a concurrent publish() of a model with
    // a different interface must reject, never over-read x.
    if (entry->server->inSize() != in_size ||
        entry->server->outSize() != out_size)
        return false;
    out->ticket_ = entry->server->submit(x, deadline_us);
    out->server_ = entry->server.get();
    out->version_ = entry->version;
    out->entry_ = std::move(entry);
    return true;
}

RegistryTicket
ModelRegistry::submit(const std::string &name,
                      const std::vector<double> &x, uint64_t deadline_us)
{
    std::shared_ptr<Entry> entry = find(name);
    TIE_CHECK_ARG(entry != nullptr, "no model named '", name,
                  "' is registered");
    RegistryTicket t;
    t.ticket_ = entry->server->submit(x, deadline_us);
    t.server_ = entry->server.get();
    t.version_ = entry->version;
    t.entry_ = std::move(entry);
    return t;
}

RequestStatus
ModelRegistry::wait(RegistryTicket &t, std::vector<double> *out,
                    RequestTiming *timing)
{
    TIE_CHECK_ARG(t.valid(), "wait on an invalid RegistryTicket");
    return t.server_->wait(t.ticket_, out, timing);
}

bool
ModelRegistry::has(const std::string &name) const
{
    return find(name) != nullptr;
}

ModelInfo
ModelRegistry::info(const std::string &name) const
{
    ModelInfo mi;
    TIE_CHECK_ARG(tryInfo(name, &mi), "no model named '", name,
                  "' is registered");
    return mi;
}

ModelInfo
ModelRegistry::infoOf(const std::string &name, const Entry &e)
{
    ModelInfo mi;
    mi.name = name;
    mi.version = e.version;
    mi.layers = e.artifact.layerCount();
    mi.in_size = e.server->inSize();
    mi.out_size = e.server->outSize();
    return mi;
}

bool
ModelRegistry::tryInfo(const std::string &name, ModelInfo *out) const
{
    std::shared_ptr<Entry> entry = find(name);
    if (entry == nullptr)
        return false;
    *out = infoOf(name, *entry);
    return true;
}

std::vector<ModelInfo>
ModelRegistry::list() const
{
    std::vector<std::string> names;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (const auto &kv : models_)
            names.push_back(kv.first);
    }
    std::vector<ModelInfo> out;
    out.reserve(names.size());
    for (const std::string &n : names) {
        ModelInfo mi;
        if (tryInfo(n, &mi)) // racing unloads just drop the row
            out.push_back(mi);
    }
    return out;
}

} // namespace serve
} // namespace tie
