#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest size (--smoke).

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that:
  - the run passes its output check and exits 0;
  - the report line carries every metric the workload promises, under
    its name and with its unit;
  - the result line has exactly the keys correct/attempted/failed/metrics
    and every BENCHMARK.json metric of the mode, with its unit;
  - the traced run prints the same answer digest as the untraced run
    of the same seed;
  - a run with a corrupted answer (--corrupt-digest) exits non-zero and
    reports "correct": false.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMON = {"setup_s": "s", "f_in": "ratio", "f_out": "ratio",
          "fail_share": "ratio", "private_dirty_mb": "MiB"}
SERVING = {"decide_p50_ms": "ms", "decide_p99_ms": "ms",
           "decisions_per_s": "1/s"}
ENROLL = {"enroll_p50_s": "s", "batch_records_per_s": "1/s"}
PROMISED = {
    "hot_fences": {**COMMON, **SERVING},
    "fleet_zipf": {**COMMON, **SERVING},
    "enroll": {**COMMON, **ENROLL},
}


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "7", "--seconds", "1", "--trace",
               str(trace), "--smoke"] + list(extra)
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    report = next((json.loads(line[len("report "):]) for line in lines
                   if line.startswith("report ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, report, result, done.stdout + done.stderr


def check(condition, message, output=""):
    if not condition:
        print("FAIL: " + message)
        if output:
            print(output[-3000:])
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    contract = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in PROMISED:
        digests = []
        for trace in (0, 1):
            code, report, result, output = run(workload, trace)
            where = "%s trace=%d" % (workload, trace)
            check(code == 0, where + " exited %d" % code, output)
            check(report is not None and result is not None,
                  where + " printed no report/result line", output)
            promised = dict(PROMISED[workload])
            if trace:
                promised.update(contract[1])
            for name, unit in promised.items():
                metric = report["metrics"].get(name)
                check(metric is not None, where + " report lacks " + name)
                check(metric["unit"] == unit,
                      "%s: %s has unit %s, not %s" % (where, name,
                                                      metric["unit"], unit))
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  where + " result keys are " + ",".join(sorted(result)))
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, where + " result not correct")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == contract[trace],
                  where + " result metrics differ from BENCHMARK.json")
            digests.append(report["digest"])
        check(digests[0] == digests[1],
              workload + ": traced and untraced runs served different answers")
        code, _, result, output = run(workload, 0, "--corrupt-digest")
        check(code != 0 and result is not None and result["correct"] is False,
              workload + ": a corrupted answer did not fail the run", output)
        print("ok   %s (digest %s)" % (workload, digests[0]))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
