#!/usr/bin/env python3
"""Builds and runs the GEM benchmark driver (perfbench/perfbench.cc).

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot_fences --seed 1 --seconds 10 --trace 0

The first run configures and builds the driver and the repo's libraries
into .bench_build/perfbench (build output goes to stderr); later runs
only re-check the build. The driver's last stdout line is the result
object. The exit status is the driver's: 0 when the output check
passed, non-zero otherwise (or when the build fails).

`--workload all` runs every workload untraced and traced and prints
each report; it exits non-zero if any run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["hot_fences", "fleet_zipf", "enroll"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "gem_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "gem_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def run_driver(workload, seed, seconds, trace, extra):
    work_dir = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        command = [BINARY, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--work-dir", work_dir] + extra
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes (used by selftest.py)")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help="test hook: the output check must fail")
    args = parser.parse_args()
    extra = (["--smoke"] if args.smoke else []) + (
        ["--corrupt-digest"] if args.corrupt_digest else [])

    if not build():
        return 2
    sys.stdout.flush()
    if args.workload != "all":
        return run_driver(args.workload, args.seed, args.seconds, args.trace,
                          extra)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code = run_driver(workload, args.seed, args.seconds, trace, extra)
            sys.stdout.flush()
            if code:
                print("perfbench: %s trace=%d exited %d" % (workload, trace, code))
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
