#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/selftest.py

Runs every workload traced with a fixed number of windows (--passes 3, so no
count depends on how fast the host is) four times:

  A, B  seed 1, build_threads 2   -> identical counts
  C     seed 1, build_threads 1   -> identical build and search counts
  D     seed 2, build_threads 2   -> another query stream, same metric names

Every run must also pass its own correctness checks and report exactly the
per-layer metrics BENCHMARK.json lists. Exits 1 on any
mismatch, printing what differed.
"""

import json
import os
import re
import subprocess
import sys

import run

COUNTS = ("search.ndc", "search.hops", "algorithms.build_evals",
          "quant.quantized_evals", "quant.rescore_evals", "index_bytes",
          "recall_at_10")
BUILD_COUNTS = ("algorithms.build_evals", "index_bytes", "search.ndc")
METRIC = re.compile(r"^# metric (\S+) = (\S+) ")
DIGEST = re.compile(r"^# query stream digest (\w+)")


def perfbench(out, workload, seed, build_threads):
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1",
           "--passes", "3", "--build-threads", str(build_threads),
           "--out-dir", os.path.join(out, "selftest")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    metrics = {}
    digest = None
    for line in lines:
        if METRIC.match(line):
            name, value = METRIC.match(line).groups()
            metrics[name] = float(value)
        elif DIGEST.match(line):
            digest = DIGEST.match(line).group(1)
    result = json.loads(lines[-1]) if lines else {}
    return {"rc": proc.returncode, "result": result, "metrics": metrics,
            "digest": digest}


def main():
    out = run.build_dir()
    if not run.build(out):
        return 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        per_layer = [m["name"] for m in json.load(f)["per_layer"]]
    problems = []
    for workload in run.WORKLOADS:
        a = perfbench(out, workload, 1, 2)
        b = perfbench(out, workload, 1, 2)
        c = perfbench(out, workload, 1, 1)
        d = perfbench(out, workload, 2, 2)
        for label, r in zip("ABCD", (a, b, c, d)):
            if r["rc"] != 0 or not r["result"].get("correct"):
                problems.append("%s run %s failed its checks (exit %d)"
                                % (workload, label, r["rc"]))
        for name in COUNTS:
            if a["metrics"].get(name) != b["metrics"].get(name):
                problems.append("%s: %s differs between two seed-1 runs: %s vs %s"
                                % (workload, name, a["metrics"].get(name),
                                   b["metrics"].get(name)))
        for name in BUILD_COUNTS:
            if a["metrics"].get(name) != c["metrics"].get(name):
                problems.append("%s: %s differs at 2 and 1 build threads: %s vs %s"
                                % (workload, name, a["metrics"].get(name),
                                   c["metrics"].get(name)))
        if a["digest"] is None or a["digest"] == d["digest"]:
            problems.append("%s: seed 2 did not change the query stream" % workload)
        if list(a["result"].get("metrics", {})) != per_layer:
            problems.append("%s: per-layer metrics differ from BENCHMARK.json"
                            % workload)
        if set(a["result"].get("metrics", {})) != set(d["result"].get("metrics", {})):
            problems.append("%s: seeds 1 and 2 report different metric names"
                            % workload)
        print("%s: %s" % (workload, ", ".join(
            "%s=%g" % (n, a["metrics"].get(n, 0.0)) for n in COUNTS)))
    for problem in problems:
        print("FAIL: " + problem)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
