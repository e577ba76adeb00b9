#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload hot_fences --seeds 1-10 [--seconds 10]

Runs the benchmark (untraced) once per seed and prints, for every
end-to-end metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the spread
(Q3 - Q1) / median, and the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in seeds_from(args.seeds):
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            print("seed %d failed (exit %d)\n%s" % (seed, done.returncode,
                                                   done.stdout[-2000:]))
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
              flush=True)

    print("%-18s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                             "spread", "bound"))
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print("%-18s %12.5g %12.5g %12.5g %8.4f %6s" % (
            name, median, q1, q3, spread, bounds.get(name, "-")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
