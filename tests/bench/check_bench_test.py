#!/usr/bin/env python3
"""Unit test of bench/check_bench.py — the CI perf-regression gate.

Run directly (registered in ctest as check_bench_test):

    python3 tests/bench/check_bench_test.py [path/to/check_bench.py]

The one guarantee that matters most: a synthetically 2x-slower metric
MUST make the checker exit non-zero (the gate actually gates).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = (sys.argv.pop(1) if len(sys.argv) > 1 else
           os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "bench", "check_bench.py"))

SERVE = {"workload": "serve_latency", "requests": 400,
         "p50_ms": 2.0, "p99_ms": 5.0, "mean_ms": 2.2}
TRAIN = {"workload": "fig9_train", "train_records": 1000,
         "results": [{"threads": 1, "train_seconds": 4.0,
                      "infer_batch_seconds": 1.0},
                     {"threads": 4, "train_seconds": 1.5,
                      "infer_batch_seconds": 0.4}]}
# A --trace_out run: results entries additionally carry a per-stage
# attribution array. Stage rows are warn-only in the gate.
TRAIN_STAGED = json.loads(json.dumps(TRAIN))
TRAIN_STAGED["results"][0]["stages"] = [
    {"stage": "bisage.gradient", "count": 100,
     "inclusive_seconds": 3.0, "exclusive_seconds": 2.8},
    {"stage": "bisage.reduce", "count": 100,
     "inclusive_seconds": 0.5, "exclusive_seconds": 0.5}]
KERNELS = {"workload": "kernels", "active_backend": "avx2",
           "results": [{"kernel": "dot", "dim": 128, "backend": "scalar",
                        "ns_per_op": 60.0},
                       {"kernel": "dot", "dim": 128, "backend": "avx2",
                        "ns_per_op": 21.0}]}
# The exact BENCH_train.json baseline committed BEFORE the staged
# training pipeline landed: the curve gets SLOWER with threads
# (0.92s@1 -> 1.44s@2 -> 2.12s@4) and the artifact predates the
# host_cpus field. The scaling gate must demonstrably fail it.
OLD_TRAIN = {"workload": "fig9_train", "train_records": 240,
             "test_records": 302,
             "results": [{"threads": 1, "train_seconds": 0.924365,
                          "infer_batch_seconds": 0.111398},
                         {"threads": 2, "train_seconds": 1.44144,
                          "infer_batch_seconds": 0.0739823},
                         {"threads": 4, "train_seconds": 2.11517,
                          "infer_batch_seconds": 0.12809}]}
# A post-pipeline artifact shape: host_cpus recorded, curve within
# every budget.
SCALED_TRAIN = {"workload": "fig9_train", "train_records": 1000,
                "host_cpus": 8,
                "results": [
                    {"threads": 1, "train_seconds": 4.0,
                     "infer_batch_seconds": 1.0},
                    {"threads": 2, "train_seconds": 2.2,
                     "infer_batch_seconds": 0.6},
                    {"threads": 4, "train_seconds": 1.3,
                     "infer_batch_seconds": 0.4},
                    {"threads": 8, "train_seconds": 1.0,
                     "infer_batch_seconds": 0.3}]}
# Scenario-matrix artifact: cells are self-gating (their accuracy
# thresholds ride in the JSON); *_seconds columns are warn-only.
MATRIX = {"workload": "scenario_matrix", "repetitions": 3,
          "cells": [{"id": "baseline/small_home", "family": "baseline",
                     "reps": 3, "auc_mean": 0.99, "fpr_mean": 0.12,
                     "latency_records_mean": 0.5, "min_auc": 0.95,
                     "max_fpr": 0.30, "max_latency_records": 6.0,
                     "passed": True, "train_seconds": 1.2,
                     "infer_seconds": 0.4},
                    {"id": "mac_churn/storm", "family": "mac_churn",
                     "reps": 3, "auc_mean": 0.86, "fpr_mean": 0.01,
                     "latency_records_mean": 14.0, "min_auc": 0.75,
                     "max_fpr": 0.15, "max_latency_records": 20.0,
                     "passed": True, "train_seconds": 1.1,
                     "infer_seconds": 0.5}]}


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.base_dir = os.path.join(self._tmp.name, "baselines")
        self.cur_dir = os.path.join(self._tmp.name, "current")
        os.makedirs(self.base_dir)
        os.makedirs(self.cur_dir)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, directory, name, payload):
        with open(os.path.join(directory, name), "w",
                  encoding="utf-8") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)

    def run_checker(self, *extra):
        return subprocess.run(
            [sys.executable, CHECKER, "--baseline-dir", self.base_dir,
             "--current-dir", self.cur_dir, *extra],
            capture_output=True, text=True)

    def seed_all(self):
        for name, payload in (("BENCH_serve.json", SERVE),
                              ("BENCH_train.json", TRAIN),
                              ("BENCH_kernels.json", KERNELS)):
            self.write(self.base_dir, name, payload)
            self.write(self.cur_dir, name, payload)

    def test_identical_passes(self):
        self.seed_all()
        result = self.run_checker()
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("OK: 0 regression(s)", result.stdout)

    def test_two_x_slower_fails(self):
        # The acceptance-criteria case: a 2x wall-time regression in any
        # gated metric must fail the gate.
        self.seed_all()
        slower = json.loads(json.dumps(SERVE))
        slower["p50_ms"] = SERVE["p50_ms"] * 2.0
        self.write(self.cur_dir, "BENCH_serve.json", slower)
        result = self.run_checker()
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("FAIL", result.stdout)
        self.assertIn("p50_ms", result.stdout)

    def test_two_x_slower_kernel_entry_fails(self):
        self.seed_all()
        slower = json.loads(json.dumps(KERNELS))
        slower["results"][1]["ns_per_op"] *= 2.0
        self.write(self.cur_dir, "BENCH_kernels.json", slower)
        result = self.run_checker()
        self.assertEqual(result.returncode, 1)
        self.assertIn("kernel=dot", result.stdout)
        self.assertIn("backend=avx2", result.stdout)

    def test_fifteen_pct_warns_but_passes(self):
        self.seed_all()
        warmish = json.loads(json.dumps(TRAIN))
        warmish["results"][0]["train_seconds"] *= 1.15
        self.write(self.cur_dir, "BENCH_train.json", warmish)
        result = self.run_checker()
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("WARN", result.stdout)
        self.assertIn("train_seconds", result.stdout)

    def test_p99_is_warn_only(self):
        self.seed_all()
        noisy = json.loads(json.dumps(SERVE))
        noisy["p99_ms"] = SERVE["p99_ms"] * 3.0
        self.write(self.cur_dir, "BENCH_serve.json", noisy)
        result = self.run_checker()
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("WARN", result.stdout)
        self.assertIn("p99_ms", result.stdout)

    def test_faster_passes(self):
        self.seed_all()
        faster = json.loads(json.dumps(SERVE))
        faster["p50_ms"] = SERVE["p50_ms"] / 3.0
        self.write(self.cur_dir, "BENCH_serve.json", faster)
        result = self.run_checker()
        self.assertEqual(result.returncode, 0)

    def test_reordered_list_entries_still_align(self):
        self.seed_all()
        reordered = json.loads(json.dumps(TRAIN))
        reordered["results"].reverse()
        self.write(self.cur_dir, "BENCH_train.json", reordered)
        result = self.run_checker()
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("OK: 0 regression(s)", result.stdout)

    def test_metric_missing_from_current_fails(self):
        self.seed_all()
        partial = json.loads(json.dumps(SERVE))
        del partial["p50_ms"]
        self.write(self.cur_dir, "BENCH_serve.json", partial)
        result = self.run_checker()
        self.assertEqual(result.returncode, 1)
        self.assertIn("missing from current run", result.stdout)

    def test_missing_current_file_is_an_error(self):
        self.seed_all()
        os.remove(os.path.join(self.cur_dir, "BENCH_serve.json"))
        result = self.run_checker()
        self.assertEqual(result.returncode, 2)

    def test_malformed_current_json_is_an_error(self):
        self.seed_all()
        self.write(self.cur_dir, "BENCH_serve.json", "{not json")
        result = self.run_checker()
        self.assertEqual(result.returncode, 2)

    def test_empty_baseline_dir_is_an_error(self):
        result = self.run_checker()
        self.assertEqual(result.returncode, 2)

    def test_new_metric_in_current_is_reported_not_gated(self):
        self.seed_all()
        extended = json.loads(json.dumps(SERVE))
        extended["p90_ms"] = 3.0
        self.write(self.cur_dir, "BENCH_serve.json", extended)
        result = self.run_checker()
        self.assertEqual(result.returncode, 0)
        self.assertIn("NEW", result.stdout)

    def test_new_stage_keys_are_reported_not_gated(self):
        # An old baseline (no stages) against a current run that emits
        # per-stage attribution: the new keys must not fail the gate.
        self.seed_all()
        self.write(self.cur_dir, "BENCH_train.json", TRAIN_STAGED)
        result = self.run_checker("BENCH_train.json")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("NEW", result.stdout)
        self.assertIn("stage=bisage.gradient", result.stdout)

    def test_stage_regression_warns_but_passes(self):
        # Once stages ARE baselined, a 2x-slower stage only warns: stage
        # exclusive times are too scheduler-noisy to gate merges on.
        self.write(self.base_dir, "BENCH_train.json", TRAIN_STAGED)
        slower = json.loads(json.dumps(TRAIN_STAGED))
        slower["results"][0]["stages"][0]["exclusive_seconds"] *= 2.0
        self.write(self.cur_dir, "BENCH_train.json", slower)
        result = self.run_checker("BENCH_train.json")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("WARN", result.stdout)
        self.assertIn("exclusive_seconds", result.stdout)

    def test_baselined_stage_missing_warns_but_passes(self):
        # Renamed/removed instrumentation: a stage disappearing from the
        # current run warns instead of failing (stage names track the
        # code, not the perf contract).
        self.write(self.base_dir, "BENCH_train.json", TRAIN_STAGED)
        fewer = json.loads(json.dumps(TRAIN_STAGED))
        del fewer["results"][0]["stages"][1]
        self.write(self.cur_dir, "BENCH_train.json", fewer)
        result = self.run_checker("BENCH_train.json")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("missing from current run", result.stdout)
        self.assertIn("WARN", result.stdout)

    def test_top_level_stages_missing_warn_but_p50_still_gates(self):
        # BENCH_serve.json carries its stage table at the top level
        # (baselined from a traced run); the gated run is untraced, so
        # the rows are absent there and must only warn, while the
        # end-to-end p50 still fails hard.
        staged = json.loads(json.dumps(SERVE))
        staged["stages"] = [{"stage": "gem.embed", "count": 400,
                             "inclusive_seconds": 0.6,
                             "exclusive_seconds": 0.6}]
        self.write(self.base_dir, "BENCH_serve.json", staged)
        self.write(self.cur_dir, "BENCH_serve.json", SERVE)
        result = self.run_checker("BENCH_serve.json")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("stage=gem.embed", result.stdout)
        self.assertIn("WARN", result.stdout)

        slower = json.loads(json.dumps(SERVE))
        slower["p50_ms"] *= 2.0
        self.write(self.cur_dir, "BENCH_serve.json", slower)
        result = self.run_checker("BENCH_serve.json")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("p50_ms", result.stdout)

    def test_top_level_regression_still_fails_with_stages_present(self):
        # The stage rows must not blanket the whole file in warn-only:
        # the end-to-end train_seconds gate still fails hard.
        self.write(self.base_dir, "BENCH_train.json", TRAIN_STAGED)
        slower = json.loads(json.dumps(TRAIN_STAGED))
        slower["results"][0]["train_seconds"] *= 2.0
        self.write(self.cur_dir, "BENCH_train.json", slower)
        result = self.run_checker("BENCH_train.json")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("FAIL", result.stdout)
        self.assertIn("train_seconds", result.stdout)

    # --- scenario-matrix accuracy gate -------------------------------

    def seed_matrix(self):
        self.write(self.base_dir, "BENCH_matrix.json", MATRIX)
        self.write(self.cur_dir, "BENCH_matrix.json", MATRIX)

    def test_matrix_within_thresholds_passes(self):
        self.seed_matrix()
        result = self.run_checker("BENCH_matrix.json")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("within accuracy thresholds", result.stdout)

    def test_matrix_auc_below_floor_fails(self):
        # The accuracy gate judges the CURRENT run against its own
        # embedded thresholds — no baseline-relative tolerance.
        self.seed_matrix()
        worse = json.loads(json.dumps(MATRIX))
        worse["cells"][1]["auc_mean"] = 0.60
        worse["cells"][1]["passed"] = False
        self.write(self.cur_dir, "BENCH_matrix.json", worse)
        result = self.run_checker("BENCH_matrix.json")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("below floor", result.stdout)
        self.assertIn("mac_churn/storm", result.stdout)

    def test_matrix_fpr_above_ceiling_fails(self):
        self.seed_matrix()
        worse = json.loads(json.dumps(MATRIX))
        worse["cells"][0]["fpr_mean"] = 0.55
        self.write(self.cur_dir, "BENCH_matrix.json", worse)
        result = self.run_checker("BENCH_matrix.json")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("above ceiling", result.stdout)

    def test_matrix_passed_false_fails_even_if_metrics_look_ok(self):
        # Belt and braces: the producer's own verdict is honored.
        self.seed_matrix()
        worse = json.loads(json.dumps(MATRIX))
        worse["cells"][0]["passed"] = False
        self.write(self.cur_dir, "BENCH_matrix.json", worse)
        result = self.run_checker("BENCH_matrix.json")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("passed=false", result.stdout)

    def test_matrix_latency_over_budget_warns_but_passes(self):
        self.seed_matrix()
        slow = json.loads(json.dumps(MATRIX))
        slow["cells"][1]["latency_records_mean"] = 25.0
        self.write(self.cur_dir, "BENCH_matrix.json", slow)
        result = self.run_checker("BENCH_matrix.json")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("WARN", result.stdout)
        self.assertIn("latency", result.stdout)

    def test_matrix_cell_walltime_regression_warns_but_passes(self):
        # Cell train/infer walltimes ride under .cells[...] and are
        # warn-only: the matrix gates accuracy, the perf benches gate
        # speed.
        self.seed_matrix()
        slower = json.loads(json.dumps(MATRIX))
        slower["cells"][0]["train_seconds"] *= 2.0
        self.write(self.cur_dir, "BENCH_matrix.json", slower)
        result = self.run_checker("BENCH_matrix.json")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("WARN", result.stdout)
        self.assertIn("train_seconds", result.stdout)

    # --- thread-scaling gate -----------------------------------------

    def seed_train(self, payload):
        self.write(self.base_dir, "BENCH_train.json", payload)
        self.write(self.cur_dir, "BENCH_train.json", payload)

    def test_scaling_old_committed_baseline_fails(self):
        # The acceptance-criteria case: the exact pre-pipeline baseline
        # (slower with more threads, no host_cpus field) must fail the
        # scaling gate even though it is byte-identical to its own
        # baseline copy.
        self.seed_train(OLD_TRAIN)
        result = self.run_checker("BENCH_train.json")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("train_seconds@2/@1", result.stdout)
        self.assertIn("train_seconds@4/@1", result.stdout)
        # 1.44144/0.924365 = 1.559 over the 0.85 budget at 2 threads.
        self.assertIn("FAIL", result.stdout)

    def test_scaling_curve_within_budgets_passes(self):
        self.seed_train(SCALED_TRAIN)
        result = self.run_checker("BENCH_train.json")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("OK: 0 regression(s)", result.stdout)

    def test_scaling_over_budget_above_host_cpus_warns_only(self):
        # A 2-core runner cannot demonstrate 4- or 8-thread speedups;
        # over-budget ratios beyond host_cpus must warn, not fail.
        capped = json.loads(json.dumps(SCALED_TRAIN))
        capped["host_cpus"] = 2
        for entry in capped["results"]:
            if entry["threads"] > 2:
                entry["train_seconds"] = 4.5  # ratio > 1, over every budget
        self.seed_train(capped)
        result = self.run_checker("BENCH_train.json")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("warn-only", result.stdout)
        self.assertIn("host_cpus=2", result.stdout)

    def test_scaling_over_budget_within_host_cpus_fails(self):
        flat = json.loads(json.dumps(SCALED_TRAIN))
        for entry in flat["results"]:
            if entry["threads"] == 4:
                entry["train_seconds"] = 3.0  # ratio 0.75 > 0.60 budget
        self.seed_train(flat)
        result = self.run_checker("BENCH_train.json")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("train_seconds@4/@1", result.stdout)

    def test_scaling_at_8_equal_to_4_passes(self):
        # Training runs at most four executors, so @8 can only match
        # @4; a curve that flattens there passes on an 8-CPU host.
        plateau = json.loads(json.dumps(SCALED_TRAIN))
        for entry in plateau["results"]:
            if entry["threads"] in (4, 8):
                entry["train_seconds"] = 1.6  # ratio 0.40 at both
        self.seed_train(plateau)
        result = self.run_checker("BENCH_train.json")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("OK BENCH_train.json: train_seconds@8/@1 = 0.400",
                      result.stdout)

    def test_scaling_at_8_over_budget_within_host_cpus_fails(self):
        slow = json.loads(json.dumps(SCALED_TRAIN))
        for entry in slow["results"]:
            if entry["threads"] == 8:
                entry["train_seconds"] = 2.6  # ratio 0.65 > 0.60 budget
        self.seed_train(slow)
        result = self.run_checker("BENCH_train.json")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("FAIL BENCH_train.json: train_seconds@8/@1 = 0.650",
                      result.stdout)

    def test_scaling_missing_thread1_reference_fails(self):
        anchorless = json.loads(json.dumps(SCALED_TRAIN))
        anchorless["results"] = [e for e in anchorless["results"]
                                 if e["threads"] != 1]
        self.seed_train(anchorless)
        result = self.run_checker("BENCH_train.json")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("no threads=1 reference", result.stdout)

    def test_scaling_ignores_non_train_artifacts(self):
        # A serve artifact with a "results" list must not trip the
        # train-specific gate.
        self.write(self.base_dir, "BENCH_serve.json", SERVE)
        self.write(self.cur_dir, "BENCH_serve.json", SERVE)
        result = self.run_checker("BENCH_serve.json")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_explicit_name_list_restricts_comparison(self):
        self.seed_all()
        slower = json.loads(json.dumps(SERVE))
        slower["p50_ms"] = SERVE["p50_ms"] * 2.0
        self.write(self.cur_dir, "BENCH_serve.json", slower)
        result = self.run_checker("BENCH_train.json")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
