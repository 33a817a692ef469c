#!/usr/bin/env python3
"""Repeat mode: run each workload many times and summarize the spread.

    python3 perfbench/repeat.py --runs 10
    python3 perfbench/repeat.py --workloads paper-grouped --runs 5 --first-seed 100

Each run is an untraced run.py run of run_seconds (from BENCHMARK.json)
with its own seed (first-seed, first-seed+1, ...). For every end-to-end
metric the table prints the median, the first and third quartiles
(statistics.quantiles, n=4), the quartile spread as a share of the
median, and the max/min ratio. These are the figures the bounds in
BENCHMARK.json are set from. The header repeats the first run's
environment (GOMAXPROCS, nproc, Go version).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stdout}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarize(workload, env, results):
    print(f"\n{workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}")
    print(f"GOMAXPROCS {env['gomaxprocs']}, nproc {env['nproc']}, {env['go']}")
    print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} {'max/min':>8s}")
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        lo, hi = min(vals), max(vals)
        ratio = hi / lo if lo > 0 else float("nan")
        unit = results[0]["metrics"][name]["unit"]
        print(f"{name + ' (' + unit + ')':40s} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.2%} {ratio:8.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma-separated; default: every workload in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for w in workloads:
        runs = [run_once(w, args.first_seed + i, bench["run_seconds"]) for i in range(args.runs)]
        summarize(w, runs[0][0], [r for _, r in runs])


if __name__ == "__main__":
    main()
