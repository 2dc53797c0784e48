#!/usr/bin/env python3
"""Repeat the benchmark and report how steady each end-to-end metric is.

    python3 e2e/stability.py --runs 10                 # seeds 1..10
    python3 e2e/stability.py --runs 5 --sets 2 --same-seed

For each (workload, metric) it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the spread (Q3 - Q1) as a
share of the median, the largest distance of one run from the median,
and the metric's bound from BENCHMARK.json. With --sets 2 it runs the
whole series twice and also prints how far the second median is from
the first, in the metric's worse direction. --json keeps every value.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr}")
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    far = max(abs(v - med) for v in values) / med if med else 0.0
    return med, q1, q3, (q3 - q1) / med if med else 0.0, far


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true",
                    help="every run at seed 1 (default: seeds 1..runs)")
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--json", help="write every measured value here")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    workloads = args.workloads.split(",")
    # values[set][workload][metric] -> list of runs
    values = []
    for s in range(args.sets):
        vs = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                seed = 1 if args.same_seed else i + 1
                got = run_once(w, seed, args.seconds)
                for m in metrics:
                    vs[w][m["name"]].append(got[m["name"]])
                print(f"set {s + 1} run {i + 1} {w} done", file=sys.stderr,
                      flush=True)
        values.append(vs)
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(values, indent=1))

    ok = True
    hdr = (f"{'workload':<13} {'metric':<17} {'set':>3} {'median':>12} "
           f"{'q1':>12} {'q3':>12} {'iqr%':>6} {'far%':>6} {'bound%':>6}")
    if args.sets > 1:
        hdr += f" {'drift%':>7}"
    print(hdr)
    for w in workloads:
        for m in metrics:
            first = None
            for s, vs in enumerate(values):
                med, q1, q3, iqr, far = spread(vs[w][m["name"]])
                line = (f"{w:<13} {m['name']:<17} {s + 1:>3} {med:>12.6g} "
                        f"{q1:>12.6g} {q3:>12.6g} {100 * iqr:>6.2f} "
                        f"{100 * far:>6.2f} {100 * m['bound']:>6.1f}")
                if m["name"] != "setup_s" and iqr > m["bound"]:
                    ok = False
                if first is None:
                    first = med
                elif first:
                    sign = 1 if m["better"] == "lower" else -1
                    drift = sign * (med - first) / first
                    line += f" {100 * drift:>7.2f}"
                    ok = ok and drift <= m["bound"]
                print(line)
    print("all spreads and drifts within bounds" if ok else
          "SOME SPREAD OR DRIFT EXCEEDS ITS BOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
