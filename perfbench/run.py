#!/usr/bin/env python3
"""Builds and runs one workload of the LDV end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload fig7_app|fig8_sweep|server_path \
        --seed N --seconds S --trace 0|1

Builds the LDV libraries from src/ and the benchmark program, ldv_perfbench,
into .bench_build/ (or $CARGO_TARGET_DIR), runs it in a scratch directory
below that, and prints its output. The last line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Without --trace the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig7_app", "fig8_sweep", "server_path")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds ldv_perfbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("LDV sources (src/) not found next to perfbench/; run from a "
             "checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "ldv_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step %s failed: %s" % (step[:2], error))
        if done.returncode != 0:
            fail("build step %s exited with %d" % (step[:2], done.returncode))
    return os.path.join(build_dir, "ldv_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_root):
        out_root = os.path.join(ROOT, out_root)
    binary = build(os.path.join(out_root, "perfbench"))

    # ldv_perfbench runs from the root with a short relative scratch path: the
    # server's Unix socket lives there, and socket paths are length-limited.
    workdir = os.path.relpath(os.path.join(out_root, "run-%d" % os.getpid()),
                              ROOT)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        command += ["--trace-out", os.path.join(
            out_root, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("ldv_perfbench exited with %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("ldv_perfbench printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
