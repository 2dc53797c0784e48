/**
 * @file
 * A registry serving N named, versioned models behind one interface,
 * with atomic hot-swap.
 *
 * Each publish() builds a fully warmed serve::Server over the new
 * model *before* anything is swapped, then atomically replaces the
 * entry under the registry lock and finally drains the old server.
 * The drain ordering is the whole correctness story: stop() on the
 * displaced server refuses new admissions but runs every already
 * accepted request to a terminal state, so across a swap **no
 * accepted request is lost** — submits that race the swap either
 * land on the old server (and are drained) or on the new one.
 * In-flight tickets pin their entry via shared_ptr, so waiting on a
 * ticket after its model was replaced (or unloaded) is safe.
 *
 * Every model is a validated .tie artifact (io::TieModel, mapped or
 * parsed) — the entry keeps it alive while any server or ticket still
 * references it. See docs/serialization.md for the artifact side and
 * docs/serving.md for the server semantics.
 */

#ifndef TIE_SERVE_MODEL_REGISTRY_HH
#define TIE_SERVE_MODEL_REGISTRY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/tie_format.hh"
#include "serve/server.hh"

namespace tie {
namespace serve {

/** Identity + shape summary of one registered model. */
struct ModelInfo
{
    std::string name;
    uint64_t version = 0; ///< bumps by 1 on every publish
    size_t layers = 0;
    size_t in_size = 0;
    size_t out_size = 0;
};

/** A submit() outcome: the ticket plus the entry that owns it. */
class RegistryTicket
{
  public:
    RegistryTicket() = default;

    bool valid() const { return entry_ != nullptr; }

    /** Model version that took the request. */
    uint64_t version() const { return version_; }

  private:
    friend class ModelRegistry;
    std::shared_ptr<void> entry_; ///< pins server + weights
    Ticket ticket_;
    Server *server_ = nullptr;
    uint64_t version_ = 0;
};

class ModelRegistry
{
  public:
    /** @p opts applies to every server the registry builds. */
    explicit ModelRegistry(ServerOptions opts = {});
    ~ModelRegistry(); ///< unloads (drains) every model

    ModelRegistry(const ModelRegistry &) = delete;
    ModelRegistry &operator=(const ModelRegistry &) = delete;

    /**
     * Publish an artifact under @p name: build + warm a new server,
     * swap it in atomically, then drain the displaced one (if any).
     * Returns the new version (1 for a first publish).
     */
    uint64_t publish(const std::string &name, io::TieModel model);

    /**
     * Publish straight from a .tie file (mmap'd zero-copy) — the path
     * every file-backed publisher shares. fatal() on unreadable or
     * corrupt files.
     */
    uint64_t publishFile(const std::string &name,
                         const std::string &path);

    /** Non-fatal publishFile: false with a diagnostic in *error (and
        nothing published) when TieModel::tryLoad refuses the file. */
    bool tryPublishFile(const std::string &name,
                        const std::string &path,
                        uint64_t *version = nullptr,
                        std::string *error = nullptr);

    /**
     * Remove @p name: unmap it from lookups immediately, then drain
     * its server. Accepted requests still complete; their tickets
     * stay collectable. False when the name is unknown.
     */
    bool unload(const std::string &name);

    /** Admission-controlled submit to the current version of
        @p name. fatal() on unknown names — routing to a model that
        was never published is a caller bug, unlike transient
        queue-full rejection. */
    RegistryTicket submit(const std::string &name, const double *x,
                          uint64_t deadline_us = 0);
    RegistryTicket submit(const std::string &name,
                          const std::vector<double> &x,
                          uint64_t deadline_us = 0);

    /** Non-fatal submit: false when @p name is unknown, leaving
        *out invalid. */
    bool trySubmit(const std::string &name, const double *x,
                   uint64_t deadline_us, RegistryTicket *out);

    /**
     * Size-checked non-fatal submit (the C FFI path): @p in_size and
     * @p out_size are validated against the entry actually submitted
     * to — under the same entry reference — so a hot-swap racing the
     * caller's own lookup can never make the queue read more input
     * than the caller's buffer holds. False, without submitting, when
     * @p name is unknown or the interface mismatches; when @p info is
     * non-null it is filled whenever the model exists (for error
     * reporting) and left default — empty name — when it does not.
     */
    bool trySubmit(const std::string &name, const double *x,
                   size_t in_size, size_t out_size,
                   uint64_t deadline_us, RegistryTicket *out,
                   ModelInfo *info = nullptr);

    /** Collect; valid even after the model was swapped or unloaded. */
    RequestStatus wait(RegistryTicket &t,
                       std::vector<double> *out = nullptr,
                       RequestTiming *timing = nullptr);

    bool has(const std::string &name) const;

    /** Info for @p name; fatal() when unknown. */
    ModelInfo info(const std::string &name) const;

    /** Non-fatal info: false when @p name is unknown. */
    bool tryInfo(const std::string &name, ModelInfo *out) const;

    /** All registered models, name-sorted. */
    std::vector<ModelInfo> list() const;

  private:
    struct Entry;

    std::shared_ptr<Entry> find(const std::string &name) const;
    static ModelInfo infoOf(const std::string &name, const Entry &e);
    uint64_t publishEntry(const std::string &name,
                          std::shared_ptr<Entry> entry);

    ServerOptions opts_;
    mutable std::mutex mu_;
    std::map<std::string, std::shared_ptr<Entry>> models_;
    /** Flight-recorder model ids: stable per name across versions. */
    std::map<std::string, uint16_t> model_ids_;
    uint16_t next_model_id_ = 1;
};

/**
 * One registered model as a load-generator tenant (serve::LoadTarget):
 * a name bound to a registry. Unknown names are fatal, as in submit().
 */
struct RegistryTenant
{
    ModelRegistry *registry = nullptr;
    std::string name;

    size_t inSize() const { return registry->info(name).in_size; }
    RegistryTicket
    submit(const double *x, uint64_t deadline_us) const
    {
        return registry->submit(name, x, deadline_us);
    }
    RequestStatus
    wait(RegistryTicket t, std::vector<double> *out,
         RequestTiming *timing = nullptr) const
    {
        return registry->wait(t, out, timing);
    }
};

} // namespace serve
} // namespace tie

#endif // TIE_SERVE_MODEL_REGISTRY_HH
