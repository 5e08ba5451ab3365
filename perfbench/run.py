#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark (perfbench/CMakeLists.txt,
which compiles the checkout's src/ into a private library) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload in a child process. The child's last output line is the result
object; it is checked against BENCHMARK.json (exactly the declared metrics
for the mode, every value finite, end-to-end values positive) and printed as
the last line of standard output. Build output and progress go to stderr.
Exits non-zero, printing no result, if the build, the run or the check fails.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen,
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed")
    done = subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"], bench["workloads"]


def check_result(line, trace):
    declared, _ = declared_metrics(trace)
    try:
        res = json.loads(line)
    except ValueError:
        fail("last output line is not a JSON object")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(res)}")
    if not isinstance(res["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or res[key] < 0:
            fail(f"{key} is not a count")
    if res["attempted"] < 1:
        fail("no operation attempted")
    got = res["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        fail(f"metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, m in got.items():
        value = m.get("value")
        if m.get("unit") != want[name]:
            fail(f"{name}: unit {m.get('unit')} != {want[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value!r} is not a finite number")
        if not trace and value <= 0:
            fail(f"{name}: end-to-end value {value} is not positive")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    _, workloads = declared_metrics(False)
    if args.workload not in {w["name"] for w in workloads}:
        fail(f"unknown workload {args.workload}")
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"workload exited with code {proc.returncode}")
    check_result(lines[-1], bool(args.trace))
    for ln in lines:
        print(ln)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
