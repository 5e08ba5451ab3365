#!/usr/bin/env python3
"""Steadiness tool: runs one workload N times and summarises the spread.

    python3 perfbench/steady.py --workload serve_clean [--runs 10] [--seed0 1]
                                [--seconds 26] [--traced]

Run from the root of a checkout. Each run gets its own seed (seed0, seed0+1,
...) and goes through perfbench/run.py, so it builds on first use. For every
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json. Per run it prints the CPU steal ticks the run saw (from
/proc/stat) and, for the open loop, how late the request generator ran and
the latency p50 and p99 (due time to verdict). It
also checks that `failed` is the same share of `attempted` in every run.
With --traced, one more traced run prints its end-to-end figures against the
untraced medians: the tracing overhead.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit(f"steady.py: run with seed {seed} failed (exit {proc.returncode})")
    lines = proc.stdout.splitlines()
    info = {}
    for ln in lines:
        if ln.startswith("info "):
            info = json.loads(ln[len("info "):])
    return json.loads(lines[-1]), info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--traced", action="store_true",
                    help="add one traced run and report its overhead")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    shares = set()
    names = [m["name"] for m in bench["end_to_end"]]
    print(f"{'seed':>6} {'correct':>7} {'attempted':>9} {'failed':>6} "
          f"{'steal':>6} {'late_p99_ms':>11} {'late_max_ms':>11} "
          f"{'open_p50_ms':>11} {'open_p99_ms':>11} " + " ".join(names))
    for i in range(args.runs):
        seed = args.seed0 + i
        res, info = run_once(args.workload, seed, seconds, 0)
        shares.add(Fraction(res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"{seed:>6} {str(res['correct']):>7} {res['attempted']:>9} "
              f"{res['failed']:>6} {info.get('steal_ticks', 0):>6.0f} "
              f"{info.get('lateness_p99_ms', 0):>11.2f} "
              f"{info.get('lateness_max_ms', 0):>11.2f} "
              f"{info.get('open_p50_ms', 0):>11.2f} "
              f"{info.get('open_p99_ms', 0):>11.2f} " +
              " ".join(f"{res['metrics'][n]['value']:.4g}" for n in names),
              flush=True)

    print(f"\n{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
    medians = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        medians[name] = med
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{name:<18} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{spread:>8.4f} {bounds[name]:>6.2f} "
              f"{spread / bounds[name]:>12.3f}")
    exact = len(shares) == 1
    print(f"\nfailed share identical in every run: {'yes' if exact else 'NO'} "
          f"({', '.join(str(x) for x in sorted(shares))})")

    if args.traced:
        res, info = run_once(args.workload, args.seed0, seconds, 1)
        print("\ntraced run (seed %d): correct %s, %d spans, %d nesting "
              "violations" % (args.seed0, res["correct"], info.get("spans", 0),
                              info.get("span_nesting_violations", 0)))
        for name, med in medians.items():
            traced = info.get("e2e." + name)
            if traced is not None:
                print(f"  {name:<18} untraced median {med:>12.4f}  "
                      f"traced {traced:>12.4f}  ({(traced / med - 1) * 100:+.1f}%)")
    return 0 if exact else 1


if __name__ == "__main__":
    sys.exit(main())
