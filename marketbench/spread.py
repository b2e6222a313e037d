#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage (from the repository root):
    python3 marketbench/spread.py --workload durable_stream --runs 10 [--first-seed 1]
                                  [--trace 0]

For every metric of the JSON result it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, (q3 - q1) /
median, next to the bound BENCHMARK.json gives it.  Seeds are first-seed,
first-seed + 1, ...; runs go one after another.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", seconds,
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                           for k, v in result["metrics"].items()),
              file=sys.stderr)

    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
