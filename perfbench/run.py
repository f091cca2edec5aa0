#!/usr/bin/env python3
"""Builds and runs the weavess end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds the
standalone CMake project in perfbench/ (which compiles ../src) under
.bench_build/perfbench; later calls only re-run the incremental build. All
build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. The exit code is the benchmark's: 0 when every correctness
check passed, non-zero otherwise (and non-zero, with no result, when the
program's sources are missing or do not build).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-nsg-sift", "serve-sq8-msong", "churn-hnsw-sift")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "index.h")):
        print("perfbench: program sources not found under src/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 2
    run_dir = os.path.join(out, "run")
    proc = subprocess.run(
        [os.path.join(out, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out-dir", run_dir],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected result keys")
    except (IndexError, ValueError) as err:
        print("perfbench: no result line (%s)" % err, file=sys.stderr)
        return proc.returncode or 2
    if proc.returncode == 0 and not result["correct"]:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
