#!/bin/sh
# Smoke test for the bench binaries' observability outputs: each binary
# passed in $@ must accept --stats-json/--trace-out, write valid JSON
# (validated with python3 -m json.tool), capture at least one printed
# table, and produce identical table contents across repeat runs (the
# paper numbers are deterministic; only host wall-clock stats may vary).
#
# With --micro BIN, instead smoke-tests the google-benchmark micro
# binary: runs the session-vs-per-call inference family, the per-ISA
# kernel sweeps and the wire codec briefly and validates the
# BENCH_micro.json report it writes by default.
#
# With --serve BIN, runs the serving sweep (serve_sweep --quick) and
# validates the BENCH_serve.json schema: the structured per-point
# records, the serve.* counters, and the queue-wait/batch-size/service
# distributions with ordered p50 <= p95 <= p99.
#
# With --pareto BIN, smoke-tests the autotuner via `tie_cli tune`:
# validates the BENCH_pareto.json schema and asserts the report is
# byte-identical across TIE_THREADS=1 and TIE_THREADS=4 (the
# autotuner's determinism contract).
set -e
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

if [ "$1" = "--micro" ]; then
    BIN="$2"
    (cd "$DIR" && "$BIN" \
        --benchmark_filter='BM_TtInfer|_Isa|_Packed|_Stage|BM_Crc32|BM_WireInfer' \
        --benchmark_min_time=0.01 >/dev/null 2>&1)
    python3 -m json.tool "$DIR/BENCH_micro.json" >/dev/null
    python3 - "$DIR/BENCH_micro.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
names = {b["name"] for b in r["benchmarks"]}
for want in ("BM_TtInfer_PerCall/1", "BM_TtInfer_Session/1",
             "BM_TtInferFxp_PerCall/1", "BM_TtInferFxp_Session/1",
             # session rows at b1 / b8 / b32 with a per-inference rate
             "BM_TtInfer_Session/8", "BM_TtInferF32_Session/8",
             "BM_TtInferFxp_Session/8", "BM_TtInferFxp_Session/32",
             # the per-ISA SIMD sweeps always include the scalar path
             "BM_GemmF32_Packed/scalar", "BM_GemmF32_PackedFast/scalar",
             "BM_StageStoreF32_Packed/scalar",
             "BM_FxpMatmul_Isa/scalar", "BM_FxpMatmul_Stage/scalar",
             # the cluster wire codec
             "BM_Crc32/64", "BM_Crc32/32768", "BM_Crc32/32768/portable",
             "BM_WireInferRoundTrip/4096"):
    assert want in names, f"missing {want}: {sorted(names)}"
for b in r["benchmarks"]:
    if "_Session/" in b["name"]:
        assert b.get("infer_per_s", 0) > 0, f"no infer_per_s: {b['name']}"
EOF
    echo "micro bench smoke ok"
    exit 0
fi

if [ "$1" = "--serve" ]; then
    BIN="$2"
    (cd "$DIR" && "$BIN" --quick --stats-json >/dev/null)
    python3 -m json.tool "$DIR/BENCH_serve.json" >/dev/null
    python3 - "$DIR/BENCH_serve.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["name"] == "serve", r.get("name")
assert r["tables"], "no tables captured"

points = r["serve"]["points"]
assert points, "no sweep points recorded"
for p in points:
    for key in ("mode", "workers", "max_batch", "batch_timeout_us",
                "requests", "completed", "rejected", "timed_out",
                "mismatched", "achieved_qps", "latency_p50_us",
                "latency_p95_us", "latency_p99_us",
                "queue_wait_p50_us", "service_p50_us"):
        assert key in p, f"point missing {key}: {p}"
    assert p["mismatched"] == 0, f"served outputs mismatched: {p}"
    assert p["completed"] + p["rejected"] + p["timed_out"] \
        == p["requests"], f"requests unaccounted for: {p}"
    assert p["latency_p50_us"] <= p["latency_p95_us"] \
        <= p["latency_p99_us"], f"percentiles out of order: {p}"
assert {p["mode"] for p in points} == {"open", "closed"}

counters = r["stats"]["counters"]
assert counters["serve.accepted"] > 0
assert counters["serve.completed"] > 0
assert counters["serve.batches"] > 0

# Every report must record which SIMD path served the kernels.
assert "simd.isa" in r["stats"]["gauges"], r["stats"]["gauges"]
assert r["stats"]["gauges"]["simd.isa"] in (0, 1, 2, 3, 4)

dists = r["stats"]["distributions"]
for name in ("serve.queue_wait_us", "serve.batch_size",
             "serve.service_us"):
    d = dists[name]
    assert d["count"] > 0, f"{name} never recorded"
    assert d["p50"] <= d["p95"] <= d["p99"] <= d["max"], (name, d)
EOF
    echo "serve bench smoke ok"
    exit 0
fi

if [ "$1" = "--pareto" ]; then
    CLI="$2"
    TUNE_ARGS="tune 16 16 --seed 7 --ranks 1,2 --epochs 1 \
        --max-evals 4 --train 64 --test 32 --classes 4 --sim analytic"
    TIE_THREADS=1 "$CLI" $TUNE_ARGS \
        --pareto-out "$DIR/pareto.1.json" >/dev/null
    TIE_THREADS=4 "$CLI" $TUNE_ARGS \
        --pareto-out "$DIR/pareto.4.json" >/dev/null
    cmp "$DIR/pareto.1.json" "$DIR/pareto.4.json"
    python3 -m json.tool "$DIR/pareto.1.json" >/dev/null
    python3 - "$DIR/pareto.1.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["name"] == "pareto", r.get("name")
assert r["out_dim"] == 16 and r["in_dim"] == 16, r
assert r["evaluated"] == len(r["candidates"]) > 0, r["evaluated"]
assert r["enumerated"] >= r["evaluated"], r
for c in r["candidates"]:
    for key in ("index", "m", "n", "r", "tt_params", "compression",
                "mults", "working_elems", "accuracy",
                "modeled_latency_us", "sim_cycles", "on_frontier"):
        assert key in c, f"candidate missing {key}: {c}"
    assert len(c["r"]) == len(c["m"]) + 1, c
frontier = r["frontier"]
assert frontier, "empty Pareto frontier"
cands = r["candidates"]
for i in frontier:
    assert cands[i]["on_frontier"], f"frontier entry {i} not marked"
# Frontier members must not dominate each other (mults, -accuracy).
pts = [(cands[i]["mults"], cands[i]["accuracy"]) for i in frontier]
for a in pts:
    for b in pts:
        if a is not b:
            assert not (a[0] <= b[0] and a[1] >= b[1]
                        and (a[0] < b[0] or a[1] > b[1])), (a, b)
EOF
    echo "pareto smoke ok"
    exit 0
fi

for BENCH in "$@"; do
    NAME="$(basename "$BENCH")"
    "$BENCH" --stats-json="$DIR/$NAME.1.json" \
             --trace-out="$DIR/$NAME.1.trace.json" >/dev/null
    "$BENCH" --stats-json="$DIR/$NAME.2.json" >/dev/null
    python3 -m json.tool "$DIR/$NAME.1.json" >/dev/null
    python3 -m json.tool "$DIR/$NAME.1.trace.json" >/dev/null
    python3 -m json.tool "$DIR/$NAME.2.json" >/dev/null
    python3 - "$DIR/$NAME.1.json" "$DIR/$NAME.2.json" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
assert a["tables"], "no tables captured"
assert a["tables"] == b["tables"], "tables differ between runs"
EOF
    echo "bench smoke ok: $NAME"
done
