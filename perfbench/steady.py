#!/usr/bin/env python3
"""Runs one workload N times, untraced, with seeds 1..N and prints, per
metric, the median, the quartiles, the quartile spread (Q3 - Q1) and the
full spread (max - min), both as a share of the median.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload <name> [--runs 10]

Each run lasts `run_seconds` of BENCHMARK.json. Quartiles are
`statistics.quantiles(values, n=4)`, the spread the bounds in
BENCHMARK.json are checked against. The share of failed operations must be
the same in every run; the script says so when it is not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    here = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, os.path.join(here, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]
    seeds = range(1, a.runs + 1)
    results = []
    for seed in seeds:
        r = run_once(a.workload, seed, seconds)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {'same in every run' if len(shares) == 1 else 'DIFFERS'} "
          f"({sorted(shares)})")
    print("per run: " + " ".join(f"seed{seed}" for seed in seeds))
    for name in results[0]["metrics"]:
        print(f"  {name:<32} " + " ".join(f"{r['metrics'][name]['value']:.6g}" for r in results))
    print(f"{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'range/med':>9}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else float("nan")
        rng = (max(values) - min(values)) / med if med else float("nan")
        unit = results[0]["metrics"][name]["unit"]
        print(f"{name:<34} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {iqr:>8.4f} {rng:>9.4f}  {unit}")


if __name__ == "__main__":
    main()
