#!/usr/bin/env python3
"""Build and run the q-MAX wall-clock benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload switch_min64 --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and the library sources
under src/ it drives) into .bench_build/perfbench; later runs rebuild only
what changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. A traced run (--trace 1)
also writes its spans to .bench_build/perfbench/spans-<workload>-<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("switch_min64", "ingest_q1e6", "switch_sharded_dc")
# A run measures for --seconds, then finishes its pass and prints; it is
# stopped if it is still running this long after it started.
RUN_LIMIT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "vswitch", "vswitch.hpp")):
        print("perfbench: no q-MAX sources under src/ next to perfbench/",
              file=sys.stderr)
        return False
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    if not build():
        return 1
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, check=False,
                              timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
