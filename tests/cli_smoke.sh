#!/bin/sh
# Smoke test for tie_cli: synth -> info -> round -> simulate round trip
# over .tie artifacts, plus the metrics endpoint, the stats
# pretty-printer, and (when the binary is passed as $2) the bench_diff
# regression gate.
set -e
CLI="$1"
BENCH_DIFF="$2"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" synth "$DIR/l.tie" --m 4,4 --n 4,6 --rank 3 --seed 5
"$CLI" info "$DIR/l.tie" | grep -q "compression"
"$CLI" round "$DIR/l.tie" "$DIR/b.tie" --rank 2
"$CLI" info "$DIR/b.tie" | grep -q "r=\[1,2,1\]"
"$CLI" simulate "$DIR/l.tie" --batch 2 | grep -q "bit-exact vs reference | yes"
"$CLI" simulate "$DIR/b.tie" --npe 8 --nmac 8 | grep -q "8 PE x 8 MAC"

# decompose round trip through a raw dense file produced from a model.
"$CLI" simulate "$DIR/l.tie" >/dev/null

# save-model --from concatenates the inputs' layers (24 -> 16 -> 24);
# info prints the cost rows of every layer, and the one-matrix
# commands refuse the two-layer artifact with a diagnostic.
"$CLI" synth "$DIR/m.tie" --m 4,6 --n 4,4 --rank 2 --seed 6
"$CLI" save-model "$DIR/two.tie" --from "$DIR/l.tie,$DIR/m.tie"
"$CLI" info "$DIR/two.tie" > "$DIR/two_info.txt"
grep -q "layers    | 2" "$DIR/two_info.txt"
[ "$(grep -c "compression" "$DIR/two_info.txt")" -eq 2 ]
# expect_refused PATTERN CMD...: CMD must exit 1 with PATTERN on stderr.
expect_refused() {
    pattern="$1"
    shift
    rc=0
    "$@" >/dev/null 2>"$DIR/err.txt" || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -q "$pattern" "$DIR/err.txt"; then
        echo "expected exit 1 + '$pattern', got $rc: $*" >&2
        cat "$DIR/err.txt" >&2
        exit 1
    fi
}
expect_refused "one-layer" "$CLI" simulate "$DIR/two.tie"
expect_refused "one-layer" "$CLI" round "$DIR/two.tie" "$DIR/two_r.tie" \
    --rank 2

# Fail-stop env knobs: a running binary refuses a malformed TIE_SIMD
# (including the retired "sse" path) or TIE_FAST with the resolver's
# diagnostic, before it computes anything.
for isa in sse bogus; do
    expect_refused "TIE_SIMD='$isa' must be avx512, avx2, neon or scalar" \
        env TIE_SIMD=$isa "$CLI" simulate "$DIR/l.tie"
done
expect_refused "TIE_FAST='2' must be 0 or 1" \
    env TIE_FAST=2 "$CLI" simulate "$DIR/l.tie"

# .tie artifact round trip: package, inspect, serve off the mapping.
# serve-bench verifies every completed output bit-exactly against the
# in-process reference, so a zero-mismatch run proves the reloaded
# artifact computes identically.
"$CLI" save-model "$DIR/a.tie" --from "$DIR/l.tie" --fxp
"$CLI" info "$DIR/a.tie" | grep -q "fxp twin  | yes"
"$CLI" info "$DIR/a.tie" | grep -q ".tie v1"
"$CLI" info "$DIR/a.tie" | grep -q "clamp-free max |x|"
"$CLI" serve-bench "$DIR/a.tie" --requests 64 --clients 2 \
    | grep -q "bit-exact vs reference.*| yes"
"$CLI" save-model "$DIR/s.tie" --m 4,4 --n 4,6 --rank 3 --seed 5
"$CLI" info "$DIR/s.tie" | grep -q "layers    | 1"
# Corrupting one payload byte must be rejected with a diagnostic.
cp "$DIR/a.tie" "$DIR/bad.tie"
printf '\xff' | dd of="$DIR/bad.tie" bs=1 seek=200 conv=notrunc 2>/dev/null
if "$CLI" info "$DIR/bad.tie" 2>"$DIR/err.txt"; then
    echo "corrupt artifact was accepted" >&2
    exit 1
fi
grep -q "tie" "$DIR/err.txt"
# cluster-bench validates the model before spawning any worker.
rc=0
"$CLI" cluster-bench "$DIR/bad.tie" >/dev/null 2>"$DIR/err.txt" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q "bad.tie" "$DIR/err.txt"; then
    echo "cluster-bench accepted a corrupt artifact (rc $rc)" >&2
    exit 1
fi

# Numeric flags are checked: a sign on a count, garbage, trailing
# garbage, an out-of-range value, inf and zero clients each fail with
# exit 1 and a diagnostic, never an uncaught exception (exit 134).
expect_bad_flag() {
    rc=0
    "$@" >/dev/null 2>"$DIR/flag_err.txt" || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -q "invalid argument" "$DIR/flag_err.txt"
    then
        echo "expected exit 1 + diagnostic, got $rc: $*" >&2
        cat "$DIR/flag_err.txt" >&2
        exit 1
    fi
}
# cluster-bench refuses them before it makes its /tmp/tie-cluster-*
# socket directory, so the refused runs leave none behind.
cluster_dirs() {
    ls -d /tmp/tie-cluster-?????? 2>/dev/null | sort
}
cluster_dirs > "$DIR/dirs_before.txt"
for cmd in serve-bench cluster-bench; do
    for flag in "--clients -1" "--clients 0" "--requests abc" \
        "--requests 12x" "--requests 99999999999999999999999" \
        "--seed +3"; do
        # shellcheck disable=SC2086
        expect_bad_flag "$CLI" $cmd "$DIR/s.tie" $flag
    done
done
expect_bad_flag "$CLI" cluster-bench "$DIR/s.tie" --qps 5
cluster_dirs > "$DIR/dirs_after.txt"
if ! cmp -s "$DIR/dirs_before.txt" "$DIR/dirs_after.txt"; then
    echo "refused cluster-bench runs left socket directories:" >&2
    comm -13 "$DIR/dirs_before.txt" "$DIR/dirs_after.txt" >&2
    exit 1
fi
for flag in "--qps -5" "--qps inf" "--deadline-us 1.5" \
    "--metrics-port 70000"; do
    # shellcheck disable=SC2086
    expect_bad_flag "$CLI" serve-bench "$DIR/s.tie" $flag
done
expect_bad_flag "$CLI" cluster-bench "$DIR/s.tie" --replicas -2
expect_bad_flag "$CLI" synth "$DIR/x.tie" --m 4,-4 --n 4,4
expect_bad_flag "$CLI" tune abc 16

# Observability: --stats-json / --trace-out must write valid JSON, and
# the TIE_STATS_JSON / TIE_TRACE env fallbacks must do the same.
"$CLI" simulate "$DIR/l.tie" \
    --stats-json="$DIR/s.json" --trace-out="$DIR/t.json" >/dev/null
python3 -m json.tool "$DIR/s.json" >/dev/null
python3 -m json.tool "$DIR/t.json" >/dev/null
grep -q '"simulate"' "$DIR/s.json"
grep -q '"traceEvents"' "$DIR/t.json"
TIE_STATS_JSON="$DIR/s2.json" TIE_TRACE="$DIR/t2.json" \
    "$CLI" simulate "$DIR/l.tie" >/dev/null
python3 -m json.tool "$DIR/s2.json" >/dev/null
python3 -m json.tool "$DIR/t2.json" >/dev/null

# The simulated-cycle timeline (pid 1) is deterministic: the same model
# must trace identically whether requested by flag or by env var.
python3 - "$DIR/t.json" "$DIR/t2.json" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
sim_a = [e for e in a["traceEvents"] if e.get("pid") == 1]
sim_b = [e for e in b["traceEvents"] if e.get("pid") == 1]
assert sim_a, "no sim events traced"
assert sim_a == sim_b, "sim trace is not deterministic"
EOF

# Metrics endpoint: serve-bench exposes the registry in Prometheus
# text format on an ephemeral loopback port and mirrors it to a file
# snapshot. The linger keeps the process alive for the scrape.
"$CLI" serve-bench "$DIR/a.tie" --requests 64 --clients 2 \
    --metrics-port 0 --metrics-linger-ms 8000 \
    --metrics-snapshot "$DIR/snap.prom" \
    --stats-json="$DIR/serve_stats.json" > "$DIR/serve_out.txt" &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
    PORT=$(sed -n \
        's/^metrics: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$DIR/serve_out.txt")
    [ -n "$PORT" ] && break
    sleep 0.1
done
if [ -z "$PORT" ]; then
    echo "serve-bench never announced its metrics port" >&2
    cat "$DIR/serve_out.txt" >&2
    exit 1
fi
# Scrape until the load run's series have landed (the first scrape
# can race the initial flight-recorder drain).
SCRAPED=""
for _ in $(seq 1 30); do
    python3 - "$PORT" > "$DIR/metrics.prom" <<'EOF' || true
import sys, urllib.request
url = "http://127.0.0.1:%s/metrics" % sys.argv[1]
sys.stdout.write(
    urllib.request.urlopen(url, timeout=10).read().decode())
EOF
    if grep -q 'tie_serve_phase_infer_us{quantile="0.99"}' \
        "$DIR/metrics.prom"; then
        SCRAPED=1
        break
    fi
    sleep 0.2
done
if [ -z "$SCRAPED" ]; then
    echo "metrics scrape never exposed the phase series" >&2
    cat "$DIR/metrics.prom" >&2
    exit 1
fi
grep -q "^# TYPE tie_serve_accepted counter" "$DIR/metrics.prom"
grep -q "^tie_simd_isa " "$DIR/metrics.prom"
grep -q "^tie_serve_phase_queue_us_count " "$DIR/metrics.prom"
wait "$SERVE_PID"
# The periodic snapshot file carries the same exposition format.
grep -q "^# HELP tie_" "$DIR/snap.prom"
grep -q "^tie_serve_completed " "$DIR/snap.prom"
# The report table carries the flight-recorder phase attribution.
grep -q "phase infer" "$DIR/serve_out.txt"

# Stats pretty-printer renders the session report.
"$CLI" stats "$DIR/serve_stats.json" | grep -q "distribution"
"$CLI" stats "$DIR/serve_stats.json" | grep -q "serve.phase.infer_us"

# bench_diff: identical reports compare clean (exit 0); a perturbed
# latency distribution must trip the gate (nonzero exit).
if [ -n "$BENCH_DIFF" ]; then
    "$BENCH_DIFF" "$DIR/serve_stats.json" "$DIR/serve_stats.json"
    python3 - "$DIR/serve_stats.json" "$DIR/serve_bad.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
ds = d["stats"]["distributions"]
assert ds, "no distributions in the serve report"
for rec in ds.values():
    for k in ("p50", "p95", "p99"):
        if k in rec:
            rec[k] = rec[k] * 10 + 1000
json.dump(d, open(sys.argv[2], "w"))
EOF
    if "$BENCH_DIFF" "$DIR/serve_stats.json" "$DIR/serve_bad.json" \
        > /dev/null 2>&1; then
        echo "bench_diff accepted a 10x latency regression" >&2
        exit 1
    fi
    # A baseline row with no current counterpart (a deleted or renamed
    # benchmark) is reported as missing and fails with exit 1, with
    # and without --match.
    python3 - "$DIR/serve_stats.json" "$DIR/serve_drop.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
del d["stats"]["distributions"]["serve.phase.infer_us"]
json.dump(d, open(sys.argv[2], "w"))
EOF
    for m in "" "--match=serve.phase"; do
        rc=0
        "$BENCH_DIFF" $m "$DIR/serve_stats.json" "$DIR/serve_drop.json" \
            > "$DIR/drop.txt" 2>&1 || rc=$?
        if [ "$rc" -ne 1 ] || ! grep -q "missing" "$DIR/drop.txt"; then
            echo "bench_diff $m: dropped row gave exit $rc" >&2
            exit 1
        fi
    done
fi

echo "cli smoke ok"
