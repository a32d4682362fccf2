#!/usr/bin/env python3
"""End-to-end benchmark of the ProSE reproduction.

Builds the ProSE libraries and the benchmark binary (perfbench/) from
source into .bench_build/, runs one workload and relays its report. The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.

Usage (from anywhere; paths resolve against the repository root):

    python3 perfbench/run.py --workload embed|fsim|serve|dse \
        --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics and writes the spans to
.bench_build/traces/<workload>-seed<N>.json (Chrome Trace Event format,
loadable in Perfetto). See perfbench/README.md for what each workload
and metric is for.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "prose_perfbench")
WORKLOADS = ("embed", "fsim", "serve", "dse")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ProSE sources under {ROOT}/src; nothing to benchmark", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "prose_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, check=False)
        if result.returncode != 0:
            fail("build failed: " + " ".join(step), 3)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    if not args.seconds > 0:
        fail("--seconds must be positive", 2)

    build()
    command = [BINARY, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               str(args.trace), "--git-sha", git_sha()]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(command, cwd=ROOT, capture_output=True,
                                text=True, timeout=RUN_TIMEOUT_S,
                                check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(result.stderr)
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail(f"{args.workload} exited with {result.returncode}", 5)
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(result.stdout)
        fail("the benchmark printed no result line", 6)
    if sorted(report) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1], 6)
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
