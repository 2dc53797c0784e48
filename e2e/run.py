#!/usr/bin/env python3
"""Build the engine from this checkout and run the end-to-end benchmark.

    python3 e2e/run.py --workload fc_batch --seed 1 --seconds 30 --trace 0
    python3 e2e/run.py                 # every workload, one process each
    python3 e2e/run.py --smoke         # quick pass over every workload

The first run configures and builds into $CARGO_TARGET_DIR (default
.bench_build) under the checkout root; later runs reuse that build.
With --workload, the last line of standard output is the JSON result of
that workload; the exit code is nonzero, with no result, when the build
fails, an output is wrong or the run does not finish in time.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # the whole command must end within 180 s once built


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (target if target.is_absolute() else ROOT / target).resolve()


def build():
    """Configure once, then bring tie_e2e and tie_worker up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("run.py: no engine sources next to e2e/; run from a full checkout")
        return None
    out = build_dir() / "e2e"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "tie_e2e",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log("run.py: build step failed:", " ".join(cmd))
            return None
    return out / "tie_e2e"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_workload(binary, workload, seed, seconds, trace, quick, deadline,
                 echo_json=True):
    """Run one workload in a fresh process; returns (exit code, lines)."""
    work = build_dir() / f"work-{os.getpid()}-{workload}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(ROOT), "--git-sha", git_sha(),
           # relative, so unix socket paths stay short
           "--work", os.path.relpath(work, ROOT)]
    if quick:
        cmd.append("--quick")
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        # The child leads its own process group, tie_worker replicas too.
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        for _ in range(100):
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        shutil.rmtree(work, ignore_errors=True)
        log(f"run.py: {workload} did not finish in time")
        return 1, []
    lines = out.splitlines()
    for line in lines:
        if echo_json or not line.startswith("{"):
            print(line, flush=True)
    return child.returncode, lines


def result_of(code, lines):
    if code != 0 or not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return res if res.get("correct") is True else None


def smoke(binary, bench):
    """Every workload, both modes, quick: every declared name printed."""
    ok = True
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_workload(binary, w["name"], 1, 1, trace, True,
                                       time.time() + DEADLINE_S, False)
            res = result_of(code, lines)
            if res is None:
                log(f"smoke: {w['name']} trace={trace} failed (exit {code})")
                ok = False
                continue
            printed = {tuple(l.split()[1:4:2]) for l in lines
                       if l.startswith(w["name"] + " ")}
            for m in bench[key]:
                got = res["metrics"].get(m["name"])
                if (m["name"], m["unit"]) not in printed or \
                        got is None or got["unit"] != m["unit"]:
                    log(f"smoke: {w['name']} trace={trace}: "
                        f"{m['name']} [{m['unit']}] missing")
                    ok = False
    print("smoke", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    bench = spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in
                                           bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="about 1 s per workload, two ladder steps")
    ap.add_argument("--smoke", action="store_true",
                    help="quick run of every workload in both modes, "
                         "checking every BENCHMARK.json name and unit")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.smoke:
        return smoke(binary, bench)
    deadline = time.time() + DEADLINE_S
    if args.workload:
        code, lines = run_workload(binary, args.workload, args.seed,
                                   args.seconds, args.trace, args.quick,
                                   deadline)
        return 0 if result_of(code, lines) else (code or 1)

    # Every workload, each in its own process so set-up, peak RSS and
    # the thread pool start cold.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in bench["workloads"]:
        code, lines = run_workload(binary, w["name"], args.seed,
                                   args.seconds, args.trace, args.quick,
                                   time.time() + DEADLINE_S, False)
        res = result_of(code, lines)
        if res is None:
            log(f"run.py: {w['name']} failed (exit {code})")
            return code or 1
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{w['name']}.{k}"] = v
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
