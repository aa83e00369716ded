#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the library and the benchmark
from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the benchmark's self-tests, then one
benchmark run.  The full report goes to stdout as a JSON line prefixed
with "report: "; the last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without a result line, when the build, the self-tests or
the run fail, or when the run's metrics do not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mem-point", "disk-zipf", "durable-mixed")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs cmd with its output sent to stderr; fails on a non-zero exit."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], 300)
    run_logged(["cmake", "--build", build_dir, "-j", jobs], 840)


def expected_names(trace):
    """Metric names BENCHMARK.json asks for, or None without the file."""
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    build(build_dir)

    work = os.path.join(build_dir, "work", args.workload)
    run_logged([os.path.join(build_dir, "perfbench_selftest"),
                os.path.join(build_dir, "work", "selftest")], 120)

    cmd = [os.path.join(build_dir, "perfbench_service"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=args.seconds + 150, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if proc.returncode != 0:
        fail("benchmark exited with %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("benchmark printed no result")
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail("unparsable result line: %s" % e)

    metrics = out["metrics"]
    want = expected_names(args.trace == 1)
    if want is not None and sorted(want) != sorted(metrics):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(metrics), sorted(want)))
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            fail("metric %s has no finite value" % name)

    print("report: " + json.dumps(out["report"], sort_keys=False))
    result = {"correct": bool(out["correct"]), "attempted": int(out["attempted"]),
              "failed": int(out["failed"]), "metrics": metrics}
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
