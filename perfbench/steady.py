#!/usr/bin/env python3
"""Steadiness runner: repeats one workload and prints each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/steady.py --workload <name> [--runs N] [--seed S]
                                [--seconds T] [--trace 0|1] [--vary-seeds]

Runs perfbench/run.py N times (default 10) and prints, per metric, the
median, the first and third quartiles (statistics.quantiles, n=4) and the
IQR as a share of the median — the figure the bounds in BENCHMARK.json are
set against. Runs use one seed unless --vary-seeds gives run i the seed
S + i: compare same-seed runs when tuning, since trace and WARN counts move
with the seed. Exits non-zero if any run fails or reports incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3, IQR / median) of at least two values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--vary-seeds", action="store_true")
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2")

    samples = {}
    units = {}
    ok = True
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seeds else args.seed
        result = run_once(args.workload, seed, args.seconds, args.trace)
        ok &= result["correct"] and result["failed"] == 0
        row = []
        for name, m in result["metrics"].items():
            samples.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append(f"{name}={m['value']:.6g}")
        print(f"run {i + 1} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']} " + " ".join(row), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, trace={args.trace}")
    print(f"{'metric':40} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, values in samples.items():
        if len(values) < 2:
            continue
        med, q1, q3, rel = spread(values)
        print(f"{name:40} {units[name]:9} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.2%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
