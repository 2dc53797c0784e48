/**
 * @file
 * The one place the end-to-end benchmark calls into the engine.
 *
 * Every other benchmark file talks to these types only, so a change of
 * the engine's API is a change of adapter.cc alone. The entry points
 * used are the public ones a deployment uses: saveTieModel and
 * io::TieModel::load for artifacts, InferSessionT::runPtr and
 * InferSessionFxp::runInto for offline inference, serve::Server and
 * cluster::Router submit/wait for serving, and the packed GEMM and
 * fixed-point kernels for the per-layer stage replay.
 */

#ifndef TIE_E2E_ADAPTER_HH
#define TIE_E2E_ADAPTER_HH

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

/** One TT stage GEMM: (rows x cols) core times (cols x stage_cols). */
struct StageShape
{
    size_t rows = 0;
    size_t cols = 0;
    size_t stage_cols = 0; ///< per item; a batch multiplies it
};

struct ModelInfo
{
    size_t in_size = 0;
    size_t out_size = 0;
    std::vector<StageShape> stages; ///< stage h at index h-1
    double mults_per_item = 0;      ///< sum of rows*cols*stage_cols
};

/**
 * Generate VGG-16's FC7 layer in TT form (4096x4096, d = 6, rank 4)
 * with weights drawn from @p seed and write it to @p path as a .tie
 * artifact carrying its int16 twin.
 */
void writeModel(uint64_t seed, const std::string &path);

/** A loaded (mmap'd, CRC-verified) single-layer .tie artifact. */
class Model
{
  public:
    explicit Model(const std::string &path);
    ~Model();
    Model(const Model &) = delete;
    Model &operator=(const Model &) = delete;

    const ModelInfo &info() const { return info_; }

    struct Impl;
    const Impl &impl() const { return *impl_; }

  private:
    std::unique_ptr<Impl> impl_;
    ModelInfo info_;
};

/**
 * A warmed inference session of element type T (double, float or
 * int16_t) at a fixed batch. The float session converts the artifact's
 * f64 cores at construction; the int16 session runs the artifact's
 * fixed-point twin. input() is row-major in_size x batch with item b in
 * column b; run() fills output() (out_size x batch, same layout).
 */
template <typename T>
class Session
{
  public:
    Session(const Model &model, size_t batch);
    ~Session();
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    T *input();
    const T *output() const;
    void run();

    size_t arenaBytes() const;
    size_t packedBytes() const; ///< 0 for the int16 session

    struct Impl;

  private:
    std::unique_ptr<Impl> impl_;
};

/** Dynamic-batching policy of a server or a cluster worker. */
struct ServePolicy
{
    size_t max_batch = 8;
    uint64_t window_us = 200;
    size_t queue_capacity = 256;
};

enum class Outcome { Done, Refused, TimedOut };

/** Server-side split of one completed request (0 when unknown). */
struct ServerTiming
{
    double queue_us = 0;
    double service_us = 0;
};

/** The submit/wait shape shared by the in-process server and router. */
class Target
{
  public:
    virtual ~Target() = default;
    /** Ticket, or 0 when the request was refused at admission. */
    virtual uint64_t submit(const double *x) = 0;
    /** Block until the ticket is terminal; on Done copy into *y. */
    virtual Outcome wait(uint64_t ticket, std::vector<double> *y,
                         ServerTiming *timing) = 0;
};

/** serve::Server over the artifact, one worker thread. */
class InprocServer final : public Target
{
  public:
    InprocServer(const Model &model, ServePolicy policy);
    ~InprocServer() override;

    uint64_t submit(const double *x) override;
    Outcome wait(uint64_t ticket, std::vector<double> *y,
                 ServerTiming *timing) override;

    struct Impl;

  private:
    std::unique_ptr<Impl> impl_;
};

struct ClusterCounters
{
    uint64_t redispatched = 0;
    uint64_t shed = 0;
    uint64_t worker_deaths = 0;
};

/**
 * cluster::Router over @p replicas spawned tie_worker processes, each
 * serving @p model_path on a unix socket in @p socket_dir. The
 * destructor stops the router, closes the workers' stdin (their exit
 * signal) and reaps every process.
 */
class Cluster final : public Target
{
  public:
    Cluster(const std::string &model_path, size_t replicas,
            ServePolicy policy, const std::string &socket_dir);
    ~Cluster() override;

    uint64_t submit(const double *x) override;
    Outcome wait(uint64_t ticket, std::vector<double> *y,
                 ServerTiming *timing) override;

    double spawnMs() const { return spawn_ms_; }
    double routerStartMs() const { return router_ms_; }
    std::vector<pid_t> workerPids() const;
    ClusterCounters counters() const;

    struct Impl;

  private:
    std::unique_ptr<Impl> impl_;
    double spawn_ms_ = 0;
    double router_ms_ = 0;
};

/**
 * The model's stage GEMMs at a batch, replayed through the public
 * kernel entry (packed f64/f32 GEMM, fixed-point MAC GEMM) on seeded
 * operands of the same shapes. Dense operands: the replay omits the
 * sessions' inter-stage gather, so it bounds what the kernels allow.
 */
template <typename T>
class StageReplay
{
  public:
    StageReplay(const ModelInfo &info, size_t batch, uint64_t seed);
    ~StageReplay();
    StageReplay(const StageReplay &) = delete;
    StageReplay &operator=(const StageReplay &) = delete;

    size_t stageCount() const;
    void runStage(size_t h); ///< 1-based, like the paper's stages
    double madds() const;    ///< per full pass over every stage

    struct Impl;

  private:
    std::unique_ptr<Impl> impl_;
};

/** Fixed 64x64x4096 packed f64 GEMM: the calibration denominator. */
class CalibGemm
{
  public:
    CalibGemm();
    ~CalibGemm();
    CalibGemm(const CalibGemm &) = delete;
    CalibGemm &operator=(const CalibGemm &) = delete;

    void run();
    double madds() const;

    struct Impl;

  private:
    std::unique_ptr<Impl> impl_;
};

/**
 * Turn the engine's observability on (stat registry + flight recorder
 * with rings sized so nothing is dropped) or off. The engine's own
 * Chrome-trace categories stay off: the benchmark writes its spans.
 */
void setTracing(bool on);

/** Flight-recorder events dropped since tracing was turned on. */
uint64_t flightDropped();

/** Mean requests per executed batch from the serve.* stats. */
double servedBatchSizeMean();

/** Zero every engine stat (between traced phases). */
void resetStats();

/** The engine's stat registry as JSON. */
std::string statsJson();

/** Dispatch ISA name and thread-pool size the engine resolved. */
std::string isaName();
size_t poolThreads();

/** Resize the engine's thread pool; 1 runs every kernel inline. */
void setPoolThreads(size_t n);

} // namespace e2e

#endif // TIE_E2E_ADAPTER_HH
