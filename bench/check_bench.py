#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json artifacts.

Compares the wall-time metrics of freshly produced bench JSONs
(BENCH_train.json from bench_fig9_training_update --timing_only,
BENCH_serve.json from bench_table3_latency --bench_out,
BENCH_kernels.json from bench_kernels --bench_out,
BENCH_store.json from bench_store --bench_out) against the
committed baselines in bench/baselines/.

    python3 bench/check_bench.py --baseline-dir bench/baselines \
        [--current-dir .] [--fail-pct 25] [--warn-pct 10] [NAME.json ...]

With no NAMEs, every *.json in the baseline dir is checked. A metric is
any numeric leaf whose key looks like a timing (``*_seconds``, ``*_ms``,
``ns_per_op``); list entries are keyed by their identifying fields
(threads / kernel / dim / backend / stage) so reordering never
misaligns a comparison. p99 metrics are warn-only: tail latency on
shared CI runners is too noisy to gate merges on. Per-stage
attribution metrics (the ``stages`` arrays emitted under --trace_out)
are also warn-only — including when a baselined stage disappears —
because stage names track the instrumentation, not the contract, and
per-stage exclusive times of sub-millisecond stages are dominated by
scheduler noise.

Training artifacts (``workload == "fig9_train"``) additionally pass a
thread-SCALING gate judged on the current run's own curve shape:
``train_seconds@N / train_seconds@1`` must stay under per-N budgets
(training must actually get faster with threads). Budgets are hard
only up to the producing machine's ``host_cpus``; above it they warn.
See check_scaling() for the exact rules.

Exit codes: 0 ok (warnings allowed), 1 regression (or a baselined
metric missing from the current run), 2 usage/IO/parse error.

See bench/README.md for the baseline rebase flow.
"""

import argparse
import json
import os
import re
import sys

# A numeric leaf participates in the comparison iff its key matches.
TIMING_RE = re.compile(r"(_seconds|_ms|ns_per_op)$")
# Metrics that only warn, never fail: tail latency (noisy on shared
# runners), per-stage attribution rows (stage sets follow the
# instrumentation; tiny stages are scheduler-noise-dominated), and
# scenario-matrix cell timings (cells are gated on ACCURACY below;
# their train/infer walltimes ride along informationally).
WARN_ONLY_RE = re.compile(r"(^|[._\[])p99|(^|\.)stages\[|(^|\.)cells\[")
# Fields used to key list entries stably.
ID_FIELDS = ("threads", "kernel", "dim", "backend", "workload", "fence",
             "stage", "id")

# Thread-scaling budgets for the training schedule (DESIGN.md §8):
# train_seconds@N divided by train_seconds@1 must stay under these
# ratios when the machine actually has N cores. A training wave holds
# four shards, so at most four threads do training work and @8 cannot
# beat @4: @8 gets @4's budget, so it gates that eight threads are no
# slower than four.
SCALING_BUDGETS = {2: 0.85, 4: 0.60, 8: 0.60}


def flatten(node, prefix=""):
    """Yields (path, value) for every numeric timing leaf under node."""
    if isinstance(node, dict):
        for key in sorted(node):
            path = f"{prefix}.{key}" if prefix else key
            yield from flatten(node[key], path)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            if isinstance(item, dict):
                ids = [f"{f}={item[f]}" for f in ID_FIELDS if f in item]
                tag = ",".join(ids) if ids else str(index)
            else:
                tag = str(index)
            yield from flatten(item, f"{prefix}[{tag}]")
    elif isinstance(node, bool):
        return
    elif isinstance(node, (int, float)):
        key = prefix.rsplit(".", 1)[-1]
        if TIMING_RE.search(key):
            yield prefix, float(node)


def load_metrics(path):
    with open(path, "r", encoding="utf-8") as f:
        return dict(flatten(json.load(f)))


def check_accuracy(name, current_path):
    """Accuracy gate for self-gating artifacts (scenario matrix).

    Cells embed their own thresholds, so the CURRENT run is judged
    against them directly — no baseline-relative tolerance: an AUC
    below the documented floor or an FPR above the ceiling is a hard
    failure regardless of what the baseline scored. Detection-latency
    budgets are warn-only (they ride on threshold hysteresis and are
    noisier than the rank metrics). Returns (num_failures,
    num_warnings); (0, 0) for artifacts without cells.
    """
    with open(current_path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    cells = doc.get("cells") if isinstance(doc, dict) else None
    if not isinstance(cells, list):
        return 0, 0
    failures = 0
    warnings = 0
    for cell in cells:
        if not isinstance(cell, dict):
            continue
        cid = cell.get("id", "?")
        auc = cell.get("auc_mean")
        fpr = cell.get("fpr_mean")
        latency = cell.get("latency_records_mean")
        if auc is not None and "min_auc" in cell and auc < cell["min_auc"]:
            print(f"FAIL {name}: cell {cid} auc {auc:.4f} below floor "
                  f"{cell['min_auc']:.4f}")
            failures += 1
        if fpr is not None and "max_fpr" in cell and fpr > cell["max_fpr"]:
            print(f"FAIL {name}: cell {cid} fpr {fpr:.4f} above ceiling "
                  f"{cell['max_fpr']:.4f}")
            failures += 1
        if cell.get("passed") is False:
            print(f"FAIL {name}: cell {cid} reports passed=false")
            failures += 1
        if (latency is not None and "max_latency_records" in cell
                and latency > cell["max_latency_records"]):
            print(f"WARN {name}: cell {cid} latency {latency:.1f} records "
                  f"over budget {cell['max_latency_records']:.0f} "
                  f"[warn-only]")
            warnings += 1
    if not failures:
        print(f"  OK {name}: {len(cells)} cell(s) within accuracy "
              f"thresholds")
    return failures, warnings


def check_scaling(name, current_path):
    """Thread-scaling gate for fig9 training artifacts.

    Self-gating like the accuracy gate: it judges the CURRENT run's
    curve shape (train_seconds@N / train_seconds@1), not a delta
    against the baseline — a curve that flattens or inverts is a
    scheduler regression even when every individual number moved
    "only" a few percent, which the relative gate cannot see.

    Rules:
      * The curve needs a threads=1 reference; a curve with no anchor
        is a hard failure (the producer must always run the
        single-thread leg).
      * ratio@N must stay under SCALING_BUDGETS[N].
      * Budgets are hard only while N <= top-level ``host_cpus``;
        above the core count oversubscription makes the ratios
        meaningless, so they warn. Artifacts produced before this gate
        existed carry no host_cpus field; every budget then applies,
        which is what makes the pre-pipeline baseline (whose curve got
        SLOWER with threads) demonstrably fail.

    Returns (num_failures, num_warnings); (0, 0) for artifacts that
    are not fig9_train runs.
    """
    with open(current_path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("workload") != "fig9_train":
        return 0, 0
    results = doc.get("results")
    if not isinstance(results, list):
        return 0, 0
    host_cpus = doc.get("host_cpus")
    curve = {}
    for entry in results:
        if not isinstance(entry, dict):
            continue
        threads = entry.get("threads")
        seconds = entry.get("train_seconds")
        if (isinstance(threads, int) and not isinstance(threads, bool)
                and isinstance(seconds, (int, float))):
            curve[threads] = float(seconds)
    if not curve:
        return 0, 0
    if 1 not in curve:
        print(f"FAIL {name}: scaling curve has no threads=1 reference "
              f"(got threads={sorted(curve)})")
        return 1, 0
    reference = curve[1]
    if reference <= 0.0:
        print(f"SKIP {name}: threads=1 train_seconds is {reference:.6g}")
        return 0, 0
    failures = 0
    warnings = 0
    for threads in sorted(curve):
        budget = SCALING_BUDGETS.get(threads)
        if budget is None:
            continue
        ratio = curve[threads] / reference
        line = (f"{name}: train_seconds@{threads}/@1 = {ratio:.3f} "
                f"(budget {budget:.2f})")
        if ratio <= budget:
            print(f"  OK {line}")
        elif host_cpus is None or threads <= host_cpus:
            print(f"FAIL {line}")
            failures += 1
        else:
            print(f"WARN {line} [threads > host_cpus={host_cpus}; "
                  f"warn-only]")
            warnings += 1
    return failures, warnings


def compare_file(name, baseline_path, current_path, fail_pct, warn_pct):
    """Returns (num_regressions, num_warnings) for one artifact pair."""
    base = load_metrics(baseline_path)
    cur = load_metrics(current_path)
    regressions = 0
    warnings = 0
    for path in sorted(base):
        warn_only = WARN_ONLY_RE.search(path) is not None
        if path not in cur:
            if warn_only:
                print(f"WARN {name}: {path} missing from current run "
                      f"(baseline {base[path]:.6g}) [warn-only]")
                warnings += 1
            else:
                print(f"FAIL {name}: {path} missing from current run "
                      f"(baseline {base[path]:.6g})")
                regressions += 1
            continue
        b, c = base[path], cur[path]
        if b <= 0.0:
            print(f"SKIP {name}: {path} baseline is {b:.6g}")
            continue
        delta_pct = (c - b) / b * 100.0
        line = (f"{name}: {path} baseline={b:.6g} current={c:.6g} "
                f"({delta_pct:+.1f}%)")
        if delta_pct > fail_pct and not warn_only:
            print(f"FAIL {line}")
            regressions += 1
        elif delta_pct > warn_pct:
            print(f"WARN {line}" + (" [warn-only]" if warn_only else ""))
            warnings += 1
        else:
            print(f"  OK {line}")
    for path in sorted(set(cur) - set(base)):
        print(f"NEW  {name}: {path}={cur[path]:.6g} "
              f"(not in baseline; will be gated after the next rebase)")
    return regressions, warnings


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", required=True)
    parser.add_argument("--current-dir", default=".")
    parser.add_argument("--fail-pct", type=float, default=25.0,
                        help="fail when a metric regresses by more than "
                             "this percentage (default 25)")
    parser.add_argument("--warn-pct", type=float, default=10.0,
                        help="warn above this percentage (default 10)")
    parser.add_argument("names", nargs="*",
                        help="artifact file names (default: every *.json "
                             "in the baseline dir)")
    args = parser.parse_args(argv)
    if args.warn_pct > args.fail_pct:
        print(f"error: --warn-pct ({args.warn_pct}) must be <= --fail-pct "
              f"({args.fail_pct})", file=sys.stderr)
        return 2

    names = args.names
    if not names:
        try:
            names = sorted(n for n in os.listdir(args.baseline_dir)
                           if n.endswith(".json"))
        except OSError as e:
            print(f"error: cannot list {args.baseline_dir}: {e}",
                  file=sys.stderr)
            return 2
    if not names:
        print(f"error: no baseline *.json in {args.baseline_dir}",
              file=sys.stderr)
        return 2

    total_regressions = 0
    total_warnings = 0
    for name in names:
        baseline_path = os.path.join(args.baseline_dir, name)
        current_path = os.path.join(args.current_dir, name)
        try:
            regressions, warnings = compare_file(
                name, baseline_path, current_path, args.fail_pct,
                args.warn_pct)
            acc_failures, acc_warnings = check_accuracy(name, current_path)
            scale_failures, scale_warnings = check_scaling(
                name, current_path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 2
        total_regressions += regressions + acc_failures + scale_failures
        total_warnings += warnings + acc_warnings + scale_warnings

    verdict = "FAIL" if total_regressions else "OK"
    print(f"{verdict}: {total_regressions} regression(s), "
          f"{total_warnings} warning(s) across {len(names)} artifact(s) "
          f"[fail >{args.fail_pct:g}%, warn >{args.warn_pct:g}%]")
    return 1 if total_regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
