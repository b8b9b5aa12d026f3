#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

Usage (from the repository root):
    python3 perfbench/spread.py --workload kvswap [--seeds 1-10] [--trace 0]

For every metric it prints the median over the seeds and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json. A
run that fails or prints no result stops the script with exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        start = time.time()
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
            print(f"seed {seed}: exit {out.returncode}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: {time.time() - start:.1f}s correct="
              f"{result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':28} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:28} {med:14.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}  "
              + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
