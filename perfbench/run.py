#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyst|dashboard|large_corpus \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the Unify libraries from
src/ plus the benchmark program) in Release mode under .bench_build/, runs
the helper tests, then runs the workload. The full record (run header,
workload facts, metrics) is printed first; the last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}.
Spans of a traced run are written to .bench_build/perfbench-out/.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs cmd with its output sent to stderr; fails on a nonzero exit."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the root of a Unify checkout (src/ is missing)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)
    run_logged([os.path.join(BUILD_DIR, "harness_test"),
                "--gtest_brief=1"], RUN_TIMEOUT_S)


def git_head():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["analyst", "dashboard", "large_corpus"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-head", git_head()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            OUT_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S, check=False, text=True)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(record, sort_keys=False))
    for problem in record["wrong"]:
        print("perfbench: WRONG: " + problem, file=sys.stderr)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
