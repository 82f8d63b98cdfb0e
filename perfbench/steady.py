#!/usr/bin/env python3
"""Repeats one workload of the benchmark and prints the spread of each metric.

Usage (from the repository root):
    python3 perfbench/steady.py --workload fig7_app [--runs 10]

Runs perfbench/run.py --runs times, with seeds 1, 2, ..., --runs and the run
length of BENCHMARK.json, and prints per metric the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound. A spread above its bound is
marked, except setup_s's, whose median alone is bounded. The last line gives
the share of failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    units = {}
    attempted = failed = 0
    correct = True
    for seed in range(1, args.runs + 1):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit("run with seed %d failed (exit %d)" % (seed,
                                                           done.returncode))
        result = json.loads(done.stdout.strip().split("\n")[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]),
              flush=True)

    print("\n%-16s %5s %14s %14s %14s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    within = True
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        over = name != "setup_s" and spread > bounds[name]
        within = within and not over
        print("%-16s %5s %14.6g %14.6g %14.6g %8.4f %6.2f%s" %
              (name, units[name], median, q1, q3, spread, bounds[name],
               "  <-- over its bound" if over else ""))
    print("\ncorrect=%s failed share=%d/%d; spreads %s" %
          (correct, failed, attempted,
           "within their bounds" if within else "OVER A BOUND"))


if __name__ == "__main__":
    main()
