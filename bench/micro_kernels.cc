/**
 * @file
 * google-benchmark microbenchmarks of the software kernels: compact vs
 * naive TT inference, dense GEMV, the two Transform implementations
 * (index-map vs the paper's literal 4-step), the fixed-point GEMM,
 * TT-SVD, and the cluster wire codec (CRC-32, request frame round
 * trip). These measure host wall-clock, complementing the simulator's
 * cycle counts.
 *
 * The *_Threads benchmarks sweep the pool size over the same input so
 * the parallel layer's speedup is measured, not asserted: compare e.g.
 * BM_CompactInfer_Batch32_Threads/1 against .../4 (the kernels are
 * deterministic, so outputs are bit-identical across the sweep).
 *
 * Unless --benchmark_out is given, results are also written to
 * BENCH_micro.json (google-benchmark's JSON format) so every run
 * leaves a machine-readable perf record; --stats-json/--trace-out add
 * the obs registry and Chrome-trace outputs on top.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "cluster/wire.hh"
#include "common/thread_pool.hh"
#include "obs/report.hh"
#include "core/workloads.hh"
#include "io/crc32.hh"
#include "linalg/gemm.hh"
#include "linalg/pack.hh"
#include "linalg/simd.hh"
#include "linalg/svd.hh"
#include "quant/fxp_simd.hh"
#include "tt/cost_model.hh"
#include "tt/infer_session.hh"
#include "tt/tt_infer.hh"
#include "tt/tt_svd.hh"

using namespace tie;

namespace {

TtLayerConfig
smallLayer()
{
    TtLayerConfig cfg;
    cfg.m = {4, 4, 4};
    cfg.n = {4, 8, 8};
    cfg.r = {1, 4, 4, 1};
    return cfg;
}

void
BM_CompactInfer_Small(benchmark::State &state)
{
    Rng rng(1);
    TtMatrix tt = TtMatrix::random(smallLayer(), rng);
    std::vector<double> x(smallLayer().inSize(), 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(compactInferVec(tt, x));
}
BENCHMARK(BM_CompactInfer_Small);

void
BM_NaiveInfer_Small(benchmark::State &state)
{
    Rng rng(1);
    TtMatrix tt = TtMatrix::random(smallLayer(), rng);
    std::vector<double> x(smallLayer().inSize(), 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(naiveInfer(tt, x));
}
BENCHMARK(BM_NaiveInfer_Small);

void
BM_DenseGemv_Small(benchmark::State &state)
{
    Rng rng(1);
    TtMatrix tt = TtMatrix::random(smallLayer(), rng);
    MatrixD w = tt.toDense();
    std::vector<double> x(smallLayer().inSize(), 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(matVec(w, x));
}
BENCHMARK(BM_DenseGemv_Small);

void
BM_CompactInfer_VggFc6(benchmark::State &state)
{
    Rng rng(2);
    TtMatrix tt = TtMatrix::random(workloads::vggFc6(), rng);
    std::vector<double> x(workloads::vggFc6().inSize(), 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(compactInferVec(tt, x));
    state.SetItemsProcessed(state.iterations() *
                            multCompact(workloads::vggFc6()));
}
BENCHMARK(BM_CompactInfer_VggFc6);

void
BM_Transform_IndexMap(benchmark::State &state)
{
    TtLayerConfig cfg = workloads::vggFc6();
    const size_t h = 4;
    TransformSpec spec = makeStageTransform(cfg, h);
    Rng rng(3);
    MatrixD v(spec.rows_in, spec.cols_in);
    v.setNormal(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(applyTransform(spec, v));
}
BENCHMARK(BM_Transform_IndexMap);

void
BM_Transform_FourStep(benchmark::State &state)
{
    TtLayerConfig cfg = workloads::vggFc6();
    const size_t h = 4;
    Rng rng(3);
    MatrixD v(cfg.coreRows(h), cfg.stageCols(h));
    v.setNormal(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(transformFourStep(cfg, h, v));
}
BENCHMARK(BM_Transform_FourStep);

void
BM_FxpMatmul(benchmark::State &state)
{
    const size_t n = state.range(0);
    Rng rng(4);
    MatrixF wf(n, n), xf(n, n);
    wf.setUniform(rng, -1, 1);
    xf.setUniform(rng, -1, 1);
    MacFormat fmt;
    auto w = quantizeMatrix(wf, fmt.weight);
    auto x = quantizeMatrix(xf, fmt.act_in);
    for (auto _ : state)
        benchmark::DoNotOptimize(fxpMatmul(w, x, fmt));
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_FxpMatmul)->Arg(16)->Arg(64);

void
BM_Matmul_Threads(benchmark::State &state)
{
    const size_t ambient = threadCount();
    setThreadCount(state.range(0));
    Rng rng(6);
    MatrixD a(256, 256), b(256, 256);
    a.setNormal(rng);
    b.setNormal(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(matmul(a, b));
    state.SetItemsProcessed(state.iterations() * 256 * 256 * 256);
    setThreadCount(ambient);
}
BENCHMARK(BM_Matmul_Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
BM_CompactInfer_Batch32_Threads(benchmark::State &state)
{
    const size_t ambient = threadCount();
    setThreadCount(state.range(0));
    Rng rng(7);
    const TtLayerConfig cfg = workloads::vggFc6();
    TtMatrix tt = TtMatrix::random(cfg, rng);
    MatrixD x(cfg.inSize(), 32);
    x.setNormal(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(compactInfer(tt, x));
    state.SetItemsProcessed(state.iterations() * multCompact(cfg) * 32);
    setThreadCount(ambient);
}
BENCHMARK(BM_CompactInfer_Batch32_Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
BM_FxpMatmul_Threads(benchmark::State &state)
{
    const size_t ambient = threadCount();
    setThreadCount(state.range(0));
    Rng rng(8);
    const size_t m = 64, k = 64, n = 2048; // short/wide like a TT stage
    MatrixF wf(m, k), xf(k, n);
    wf.setUniform(rng, -1, 1);
    xf.setUniform(rng, -1, 1);
    MacFormat fmt;
    auto w = quantizeMatrix(wf, fmt.weight);
    auto x = quantizeMatrix(xf, fmt.act_in);
    for (auto _ : state)
        benchmark::DoNotOptimize(fxpMatmul(w, x, fmt));
    state.SetItemsProcessed(state.iterations() * m * k * n);
    setThreadCount(ambient);
}
BENCHMARK(BM_FxpMatmul_Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------
// Per-call vs. session inference: the per-call path rebuilds the plan
// and reallocates working buffers every run; the session amortises both
// and reads the inter-stage transforms through gathered column panels.
// Same layer, same inputs,
// bit-identical outputs — only the setup/allocation cost differs.
// ---------------------------------------------------------------------

/**
 * Session rows report two rates: items_per_second counts compact-scheme
 * multiplies, infer_per_s counts inferences (samples), so per-item b1 /
 * b8 / b32 compare straight from BENCH_micro.json.
 */
void
setSessionRates(benchmark::State &state, const TtLayerConfig &cfg,
                size_t batch)
{
    state.SetItemsProcessed(state.iterations() * multCompact(cfg) *
                            batch);
    state.counters["infer_per_s"] = benchmark::Counter(
        double(state.iterations() * batch), benchmark::Counter::kIsRate);
}

void
BM_TtInfer_PerCall(benchmark::State &state)
{
    const size_t batch = state.range(0);
    Rng rng(9);
    const TtLayerConfig cfg = workloads::vggFc6();
    TtMatrix tt = TtMatrix::random(cfg, rng);
    MatrixD x(cfg.inSize(), batch);
    x.setNormal(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(compactInfer(tt, x));
    state.SetItemsProcessed(state.iterations() * multCompact(cfg) *
                            batch);
}
BENCHMARK(BM_TtInfer_PerCall)->Arg(1)->Arg(32);

void
BM_TtInfer_Session(benchmark::State &state)
{
    const size_t batch = state.range(0);
    Rng rng(9);
    const TtLayerConfig cfg = workloads::vggFc6();
    TtMatrix tt = TtMatrix::random(cfg, rng);
    MatrixD x(cfg.inSize(), batch), y;
    x.setNormal(rng);
    InferSessionD session = makeSession(tt);
    session.runInto(x, y); // warm-up: arena and group blocks
    for (auto _ : state) {
        session.runInto(x, y);
        benchmark::DoNotOptimize(y.data());
    }
    setSessionRates(state, cfg, batch);
}
BENCHMARK(BM_TtInfer_Session)->Arg(1)->Arg(8)->Arg(32);

void
BM_TtInferF32_Session(benchmark::State &state)
{
    // BM_TtInfer_Session on f32 copies of the same cores.
    const size_t batch = state.range(0);
    Rng rng(9);
    const TtLayerConfig cfg = workloads::vggFc6();
    TtMatrix tt = TtMatrix::random(cfg, rng);
    std::vector<MatrixF> cores;
    for (size_t h = 1; h <= cfg.d(); ++h)
        cores.push_back(tt.core(h).unfolded().cast<float>());
    MatrixF x(cfg.inSize(), batch), y;
    x.setNormal(rng);
    InferSessionF session(layerView(cfg, cores));
    session.runInto(x, y);
    for (auto _ : state) {
        session.runInto(x, y);
        benchmark::DoNotOptimize(y.data());
    }
    setSessionRates(state, cfg, batch);
}
BENCHMARK(BM_TtInferF32_Session)->Arg(1)->Arg(8)->Arg(32);

void
BM_TtInferFxp_PerCall(benchmark::State &state)
{
    const size_t batch = state.range(0);
    Rng rng(10);
    const TtLayerConfig cfg = workloads::vggFc6();
    TtMatrix tt = TtMatrix::random(cfg, rng);
    TtMatrixFxp fxp = TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});
    MatrixF xf(cfg.inSize(), batch);
    xf.setUniform(rng, -1, 1);
    Matrix<int16_t> x = quantizeMatrix(xf, FxpFormat{16, 8});
    for (auto _ : state)
        benchmark::DoNotOptimize(compactInferFxp(fxp, x));
    state.SetItemsProcessed(state.iterations() * multCompact(cfg) *
                            batch);
}
BENCHMARK(BM_TtInferFxp_PerCall)->Arg(1)->Arg(32);

void
BM_TtInferFxp_Session(benchmark::State &state)
{
    const size_t batch = state.range(0);
    Rng rng(10);
    const TtLayerConfig cfg = workloads::vggFc6();
    TtMatrix tt = TtMatrix::random(cfg, rng);
    TtMatrixFxp fxp = TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 8});
    MatrixF xf(cfg.inSize(), batch);
    xf.setUniform(rng, -1, 1);
    Matrix<int16_t> x = quantizeMatrix(xf, FxpFormat{16, 8});
    Matrix<int16_t> y;
    InferSessionFxp session(layerView(fxp));
    session.runInto(x, y);
    for (auto _ : state) {
        session.runInto(x, y);
        benchmark::DoNotOptimize(y.data());
    }
    setSessionRates(state, cfg, batch);
}
BENCHMARK(BM_TtInferFxp_Session)->Arg(1)->Arg(8)->Arg(32);

void
BM_TtSvd(benchmark::State &state)
{
    Rng rng(5);
    TtLayerConfig cfg;
    cfg.m = {4, 4, 4};
    cfg.n = {4, 4, 4};
    cfg.r = {1, 4, 4, 1};
    MatrixD w(cfg.outSize(), cfg.inSize());
    w.setNormal(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(ttSvdMatrix(w, cfg));
}
BENCHMARK(BM_TtSvd);

// ---------------------------------------------------------------------
// Cluster wire codec: the CPU a request frame costs per hop, apart
// from the socket. 4096 f64 values is one VGG-FC7 activation (32 KiB).
// ---------------------------------------------------------------------

void
crc32Bench(benchmark::State &state, size_t n,
           uint32_t (*crc)(const void *, size_t, uint32_t))
{
    Rng rng(21);
    std::vector<uint8_t> buf(n);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.intIn(0, 255));
    for (auto _ : state)
        benchmark::DoNotOptimize(crc(buf.data(), buf.size(), 0));
    state.SetBytesProcessed(state.iterations() * n);
}

// io::crc32 takes the carry-less-multiply path on x86-64 hosts with
// PCLMULQDQ (inputs of 64 bytes or more); the /portable row times the
// slicing-by-8 table loop on the same bytes.
void
BM_Crc32(benchmark::State &state)
{
    crc32Bench(state, static_cast<size_t>(state.range(0)), io::crc32);
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(32768);

void
BM_WireInferRoundTrip(benchmark::State &state)
{
    // One InferRequest frame encoded into a reused buffer and decoded
    // back into a reused message, with both CRCs and every check: the
    // router's encode plus the worker's decode of one request.
    const size_t n = static_cast<size_t>(state.range(0));
    Rng rng(22);
    std::vector<double> x(n);
    for (double &v : x)
        v = rng.uniform(-1, 1);
    std::vector<uint8_t> frame;
    cluster::InferRequestMsg req;
    uint64_t id = 0;
    for (auto _ : state) {
        cluster::encodeInferRequest(++id, 0, x.data(), n, &frame);
        cluster::WireFrame f;
        size_t consumed = 0;
        const cluster::DecodeStatus st = cluster::tryDecodeFrame(
            frame.data(), frame.size(), &f, &consumed);
        if (st != cluster::DecodeStatus::Ok ||
            !cluster::decodeInferRequest(f, &req)) {
            state.SkipWithError("wire round trip failed");
            break;
        }
        benchmark::DoNotOptimize(req.x.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * frame.size());
}
BENCHMARK(BM_WireInferRoundTrip)->Arg(4096);

// ---------------------------------------------------------------------
// Per-ISA kernel sweeps: the explicit-Isa entry points of the SIMD
// layer on a short/wide TT-stage shape, one registration per ISA the
// host supports (registered from main; BENCHMARK() can't enumerate the
// host's ISAs statically). Compare e.g. BM_GemmF32_Packed/scalar
// against .../avx2 — the outputs are bit-identical across the sweep, only the
// wall-clock differs.
// ---------------------------------------------------------------------

constexpr size_t kIsaM = 64, kIsaK = 64, kIsaN = 4096;

void
BM_GemmF32_Packed(benchmark::State &state, simd::Isa isa, bool fast)
{
    // A short/wide TT-stage shape through the packed register-blocked
    // microkernel (pack cost excluded — sessions pack once at
    // warm-up). fast=true additionally permits FMA.
    Rng rng(11);
    MatrixF a(kIsaM, kIsaK), b(kIsaK, kIsaN), c(kIsaM, kIsaN);
    a.setUniform(rng, -1, 1);
    b.setUniform(rng, -1, 1);
    std::vector<float> pa(pack::packedAElems(kIsaM, kIsaK));
    pack::packA(kIsaM, kIsaK, a.data(), pa.data());
    for (auto _ : state) {
        c.fill(0.0f);
        simd::gemmPackedF32(isa, fast, kIsaK, pa.data(), b.data(),
                            kIsaN, c.data(), kIsaN, 0, kIsaM, 0, kIsaN);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * kIsaM * kIsaK * kIsaN);
}

void
BM_StageStoreF32_Packed(benchmark::State &state, simd::Isa isa)
{
    // One VGG-FC7 TT stage at batch 8 (16 x 4 core, 8192 columns)
    // through the session's stage path, serial with the ISA explicit:
    // per kColBlock-wide panel, the packed microkernel reads the
    // operand panel in place and stores each accumulator block from
    // the registers through the stage descriptor (4-way interleave)
    // into the next stage's operand.
    const size_t batch = 8;
    const StageDescriptor desc =
        LayerProgram::compile(workloads::vggFc7()).stages.front();
    const size_t m = desc.rows, k = desc.inner;
    const size_t n = size_t(desc.cols) * batch;
    Rng rng(12);
    MatrixF a(m, k), b(k, n);
    std::vector<float> next(m * n); // the operand permutes V_h's elements
    a.setUniform(rng, -1, 1);
    b.setUniform(rng, -1, 1);
    std::vector<float> pa(pack::packedAElems(m, k));
    pack::packAGroups(desc.r_out, k, a.data(), pa.data());
    const gemm::StageOut<float> out = stageOut(desc, batch, next.data());
    for (auto _ : state) {
        for (size_t p0 = 0; p0 < n; p0 += gemm::kColBlock) {
            const size_t w = std::min(n - p0, gemm::kColBlock);
            gemm::StageOut<float> o = out;
            o.q0 = p0;
            simd::stagePacked(isa, false, k, pa.data(), b.data() + p0 * k,
                              w, o, 0, m, 0, w);
        }
        benchmark::DoNotOptimize(next.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * m * k * n);
}

/** fxpBlock over a whole m x k x n GEMM in the default MacFormat. */
void
fxpMatmulIsa(benchmark::State &state, simd::Isa isa, size_t m, size_t k,
             size_t n)
{
    Rng rng(13);
    MatrixF wf(m, k), xf(k, n);
    wf.setUniform(rng, -1, 1);
    xf.setUniform(rng, -1, 1);
    MacFormat fmt;
    auto w = quantizeMatrix(wf, fmt.weight);
    auto x = quantizeMatrix(xf, fmt.act_in);
    Matrix<int16_t> out(m, n);
    for (auto _ : state) {
        fxpBlock(isa, k, n, n, w.data(), x.data(), fmt, out.data(), 0, m,
                 0, n);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * m * k * n);
}

void
BM_FxpMatmul_Isa(benchmark::State &state, simd::Isa isa)
{
    fxpMatmulIsa(state, isa, kIsaM, kIsaK, kIsaN);
}

/** The VGG-FC7 TT stage at batch 8: a 16 x 16 core on 8192 columns. */
void
BM_FxpMatmul_Stage(benchmark::State &state, simd::Isa isa)
{
    fxpMatmulIsa(state, isa, 16, 16, 8192);
}

void
registerIsaSweeps()
{
    for (simd::Isa isa : simd::kIsas) {
        if (!simd::isaSupported(isa))
            continue;
        const std::string name = simd::isaName(isa);
        benchmark::RegisterBenchmark(
            ("BM_GemmF32_Packed/" + name).c_str(),
            [isa](benchmark::State &s) {
                BM_GemmF32_Packed(s, isa, false);
            });
        benchmark::RegisterBenchmark(
            ("BM_GemmF32_PackedFast/" + name).c_str(),
            [isa](benchmark::State &s) {
                BM_GemmF32_Packed(s, isa, true);
            });
        benchmark::RegisterBenchmark(
            ("BM_StageStoreF32_Packed/" + name).c_str(),
            [isa](benchmark::State &s) {
                BM_StageStoreF32_Packed(s, isa);
            });
        benchmark::RegisterBenchmark(
            ("BM_FxpMatmul_Isa/" + name).c_str(),
            [isa](benchmark::State &s) { BM_FxpMatmul_Isa(s, isa); });
        benchmark::RegisterBenchmark(
            ("BM_FxpMatmul_Stage/" + name).c_str(),
            [isa](benchmark::State &s) { BM_FxpMatmul_Stage(s, isa); });
    }
}

} // namespace

int
main(int argc, char **argv)
{
    obs::Session obs_session("micro_kernels", &argc, argv);
    registerIsaSweeps();
    benchmark::RegisterBenchmark(
        "BM_Crc32/32768/portable", [](benchmark::State &s) {
            crc32Bench(s, 32768, io::crc32Portable);
        });

    // Default a JSON results file so perf history accumulates without
    // anyone remembering the flag; explicit --benchmark_out wins.
    std::vector<char *> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        has_out |= std::strncmp(argv[i], "--benchmark_out",
                                std::strlen("--benchmark_out")) == 0;
    std::string out_flag = "--benchmark_out=BENCH_micro.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    args.push_back(nullptr);

    int bargc = static_cast<int>(args.size()) - 1;
    benchmark::Initialize(&bargc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
