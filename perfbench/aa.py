#!/usr/bin/env python3
"""A/A steadiness check: run one workload several times on one commit.

Usage (from the root of the repository):

    python3 perfbench/aa.py --workload <name|all> [--runs 10] [--seed0 1] [--seconds S]

Each run gets its own seed (seed0, seed0+1, ...). For every end-to-end
metric in BENCHMARK.json the command prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread — the distance
between the quartiles as a share of the median — and the metric's bound.
A metric is steady when its spread stays below a third of its bound
(setup_s is exempt from the spread rule; only its median is compared
between sets of runs). It also prints the share of failed operations of
every run, which must be the same in every run.
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
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=200)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def report(workload, results, bench):
    print(f"== {workload}: {len(results)} runs")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    print(f"correct in every run: {correct}; failed shares: {shares}")
    steady = correct and len(shares) == 1
    print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}  verdict")
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if m["name"] == "setup_s":
            verdict = "median compared only"
        elif spread < m["bound"] / 3:
            verdict = "steady"
        else:
            verdict = "NOT STEADY"
            steady = False
        print(f"{m['name']:<16}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.3f}{m['bound']:>8.3f}  {verdict}")
    return steady


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    steady = True
    for w in workloads:
        results = []
        for i in range(args.runs):
            res = run_once(w, args.seed0 + i, args.seconds)
            print(json.dumps(res), flush=True)
            results.append(res)
        steady = report(w, results, bench) and steady
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
