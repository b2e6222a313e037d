#!/usr/bin/env python3
"""Builds the market benchmark from source, then runs one workload.

Usage (from the repository root):
    python3 marketbench/run.py --workload single_region --seed 1 --seconds 10 --trace 0

--workload takes single_region, regional_fanout, durable_stream, auction_round
or all.  The build goes to .bench_build/ at the repository root (Release,
CMake); the first run compiles the DeCloud libraries, later runs only check
that the build is current.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  The exit code is the benchmark's:
nonzero when the build fails or a correctness check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

DEFAULT_SEED = 1
# Reserved for confirming a claimed gain on a seed no change was tuned on.
CONFIRMATION_SEED = 7919


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "market_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "market_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"marketbench: build failed: {e}", file=sys.stderr)
        return 3

    wal_dir = os.path.join(BUILD, f"wal-{os.getpid()}")
    try:
        sys.stdout.flush()
        return subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--wal-dir", wal_dir]).returncode
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
