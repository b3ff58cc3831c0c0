#!/usr/bin/env python3
"""Builds and runs the polysse benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a polysse checkout. The first call configures and
builds perfbench/ (the library's src/ layers plus the polysse_bench program) into
.bench_build/perfbench; later calls rebuild incrementally. Every call then
runs the metric self-test and polysse_bench. Its last stdout line,
repeated here as the last line, is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1 (whose spans go to .bench_build/traces/).
BENCHMARK.json at the checkout root names the metrics; a result that does
not carry exactly those is an error.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_LIMIT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no polysse sources next to perfbench/ (expected src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}, [w["name"] for w in spec["workloads"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    metrics, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail("unknown workload %r (have: %s)" % (args.workload, ", ".join(workloads)))
    build()
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("metric self-test failed")

    cmd = [os.path.join(BUILD, "polysse_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.csv" % (args.workload, args.seed))]
    budget = max(10.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail("polysse_bench exceeded %.0f s" % budget)

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("polysse_bench printed no result (exit %d)" % proc.returncode)
    if proc.returncode != 0 or not result.get("correct"):
        print(json.dumps(result))
        fail("run failed its checks (exit %d)" % proc.returncode)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != metrics:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(metrics.items())))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys differ from the contract")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
