#!/usr/bin/env python3
"""Build and run the serving benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload decode_io --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is built from source with CMake into the directory named by
CARGO_TARGET_DIR (default .bench_build), then serving_bench runs the
workload. Its last stdout line is the JSON result; this script checks that
line against BENCHMARK.json (every metric of the chosen kind, with its unit,
and nothing else) and exits non-zero if the build, the run or the check
fails. With --trace 1 the span trace is written under the build directory.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; stdout stays free for
    the result line."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build(build_dir, target):
    root = os.path.dirname(HERE)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no moelight source tree next to perfbench/ in " + root)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target",
               target], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, target)


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json asks for, or None when
    the file is not there."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    kind = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_result(line, expected):
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(res)
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        return "failed must be a whole number >= 0"
    for name, m in res["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            return "metric %s has no finite value" % name
    if expected is not None:
        got = {n: m["unit"] for n, m in res["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            return "metrics differ from BENCHMARK.json (missing %s, " \
                   "extra %s, or a unit differs)" % (missing, extra)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))

    if args.selftest:
        exe = build(build_dir, "perfbench_selftest")
        sys.exit(subprocess.run([exe], timeout=RUN_TIMEOUT_S).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    exe = build(build_dir, "serving_bench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("serving_bench ran longer than %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("serving_bench exited with %d" % proc.returncode,
             proc.returncode or 2)
    problem = check_result(lines[-1], expected_metrics(args.trace))
    if problem:
        print("\n".join(lines[:-1]))
        fail(problem, 3)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
