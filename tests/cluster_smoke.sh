#!/bin/sh
# Smoke test for the sharded serving cluster: real tie_worker
# processes behind the router, with and without chaos, plus the
# cluster_sweep bench's BENCH_cluster.json schema.
#
#   $1 = tie_cli binary
#   $2 = tie_worker binary
#   $3 = cluster_sweep bench binary
set -e
abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
CLI="$(abspath "$1")"
WORKER="$(abspath "$2")"
SWEEP="$(abspath "$3")"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" save-model "$DIR/m.tie" --m 4,4 --n 4,4 --rank 3 --seed 9

# A file that is not a .tie: the worker exits 1 with the loader's
# diagnostic before it ever reports ready.
printf 'not a model' > "$DIR/junk.bin"
rc=0
"$WORKER" --model "$DIR/junk.bin" --listen "unix:$DIR/junk.sock" \
    < /dev/null > "$DIR/junk_out.txt" 2> "$DIR/junk_err.txt" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q "cannot load" "$DIR/junk_err.txt" ||
    grep -q "ready" "$DIR/junk_out.txt"; then
    echo "tie_worker served a non-.tie file (rc $rc)" >&2
    cat "$DIR/junk_out.txt" "$DIR/junk_err.txt" >&2
    exit 1
fi

# Plain sharded run: two worker processes, every request resolved,
# every completed output bit-identical to the single-process oracle.
"$CLI" cluster-bench "$DIR/m.tie" --replicas 2 --requests 48 \
    --clients 4 --worker-bin "$WORKER" --sock-dir "$DIR" \
    --stats-json="$DIR/cb.json" > "$DIR/out.txt"
grep -q "all requests resolved.*| yes" "$DIR/out.txt"
grep -q "bit-exact vs single-process reference.*| yes" "$DIR/out.txt"

# Chaos run: SIGKILL a replica mid-load and restart it on the same
# socket. Exit code 2 = lost requests or bit mismatch, so a plain
# success here *is* the zero-lost-work assertion. The request count
# is sized so the load outlasts the harness's pre-kill delay.
mkdir "$DIR/chaos"
"$CLI" cluster-bench "$DIR/m.tie" --replicas 2 --requests 2048 \
    --clients 4 --chaos --chaos-kills 1 --worker-bin "$WORKER" \
    --sock-dir "$DIR/chaos" \
    --stats-json="$DIR/chaos.json" > "$DIR/chaos_out.txt"
grep -q "chaos" "$DIR/chaos_out.txt"
grep -q "all requests resolved.*| yes" "$DIR/chaos_out.txt"

# Mixed traffic over a zoo: a hand-written two-entry manifest over two
# save-model artifacts with different interfaces (no autotune needed)
# feeds the same path as one model, one router per artifact.
mkdir "$DIR/zoo" "$DIR/zoo_socks"
"$CLI" save-model "$DIR/zoo/a.tie" --m 4,4 --n 4,4 --rank 3 --seed 9
"$CLI" save-model "$DIR/zoo/b.tie" --m 2,4 --n 3,4 --rank 2 --seed 10
cat > "$DIR/zoo/zoo.json" <<'EOF'
{"name": "zoo", "models": [
 {"model": "a", "family": "mlp", "budget": "x", "file": "a.tie",
  "m": [4, 4], "n": [4, 4], "r": [1, 3, 1], "accuracy": 0,
  "compression": 1, "mults": 0, "sim_cycles": 0, "fxp": false},
 {"model": "b", "family": "mlp", "budget": "x", "file": "b.tie",
  "m": [2, 4], "n": [3, 4], "r": [1, 2, 1], "accuracy": 0,
  "compression": 1, "mults": 0, "sim_cycles": 0, "fxp": false}]}
EOF
"$CLI" cluster-bench --zoo "$DIR/zoo" --replicas 2 --requests 64 \
    --clients 4 --worker-bin "$WORKER" --sock-dir "$DIR/zoo_socks" \
    --stats-json="$DIR/zoo.json" > "$DIR/zoo_out.txt"
grep -q "all requests resolved.*| yes" "$DIR/zoo_out.txt"
grep -q "bit-exact vs single-process reference.*| yes" "$DIR/zoo_out.txt"

# The JSON sidecars carry the machine-readable verdicts.
python3 -m json.tool "$DIR/cb.json" >/dev/null
python3 - "$DIR/cb.json" "$DIR/chaos.json" "$DIR/zoo.json" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    r = json.load(open(path))
    cb = r["cluster_bench"]
    assert cb["none_lost"] is True, (path, cb)
    assert cb["mismatched"] == 0, (path, cb)
    assert cb["completed"] + cb["rejected"] + cb["timed_out"] \
        == cb["requests"], (path, cb)
    # Summed over every thread of every worker process.
    assert cb["worker_cpu_us_per_request"] > 0, (path, cb)
    assert cb["worker_ctx_switches_per_request"] > 0, (path, cb)
    # getrusage(RUSAGE_SELF) over the load phase: routers + clients.
    assert cb["router_cpu_us_per_request"] > 0, (path, cb)
    assert cb["router_ctx_switches_per_request"] > 0, (path, cb)
    # getrusage(RUSAGE_CHILDREN): the largest reaped worker's peak.
    assert cb["worker_rss_peak_mib"] > 0, (path, cb)
chaos = json.load(open(sys.argv[2]))["cluster_bench"]
assert chaos["chaos_kills"] >= 1, chaos
zoo = json.load(open(sys.argv[3]))["cluster_bench"]
assert [m["model"] for m in zoo["models"]] == ["a", "b"], zoo
assert all(m["mismatched"] == 0 for m in zoo["models"]), zoo
assert sum(m["completed"] for m in zoo["models"]) == zoo["completed"], zoo
EOF

# cluster_sweep --quick must emit a schema-valid BENCH_cluster.json
# in the serve-points shape bench_diff gates.
(cd "$DIR" && "$SWEEP" --quick --stats-json >/dev/null)
python3 -m json.tool "$DIR/BENCH_cluster.json" >/dev/null
python3 - "$DIR/BENCH_cluster.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["name"] == "cluster", r.get("name")
points = r["serve"]["points"]
assert points, "no sweep points recorded"
for p in points:
    for key in ("label", "mode", "replicas", "requests", "completed",
                "rejected", "timed_out", "mismatched", "achieved_qps",
                "latency_p50_us", "latency_p95_us", "latency_p99_us"):
        assert key in p, f"point missing {key}: {p}"
    assert p["mode"] == "cluster-closed", p
    assert p["mismatched"] == 0, f"cluster outputs mismatched: {p}"
    assert p["completed"] + p["rejected"] + p["timed_out"] \
        == p["requests"], f"requests unaccounted for: {p}"
    assert p["latency_p50_us"] <= p["latency_p95_us"] \
        <= p["latency_p99_us"], f"percentiles out of order: {p}"
assert {p["replicas"] for p in points} == {1, 2}, points
EOF

echo "cluster smoke ok"
