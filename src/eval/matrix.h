#ifndef GEM_EVAL_MATRIX_H_
#define GEM_EVAL_MATRIX_H_

#include <string>
#include <vector>

#include "base/statusor.h"
#include "core/gem.h"
#include "eval/evaluate.h"
#include "math/stats.h"
#include "rf/dataset.h"
#include "rf/dynamics.h"

namespace gem::eval {

/// One cell of the city-scale scenario matrix: a simulated premises
/// plus the deployment hazard it stresses (confusable adjacent floors,
/// MAC-renaming churn, long-horizon drift, or a miscalibrated device),
/// with the accuracy floor the cell must clear in CI.
struct MatrixCell {
  /// Stable key, "family/variant" (keys BENCH_matrix.json list
  /// entries, so renaming a cell re-baselines it).
  std::string id;
  /// baseline | multi_floor | mac_churn | drift | device.
  std::string family;
  /// One line of intent for the table and the JSON artifact.
  std::string note;

  rf::ScenarioConfig scenario;
  rf::DatasetOptions options;
  rf::PropagationConfig prop;

  /// Post-generation stream transforms, applied to the TEST stream
  /// only: training happens before the storm / on the reference
  /// device, which is exactly the transfer gap being measured.
  bool churn = false;
  rf::MacChurnOptions churn_options;
  bool device = false;
  rf::DeviceProfile device_profile;

  // --- CI pass thresholds (documented in DESIGN.md §14) ---
  /// Mean ROC-AUC over reps must be >= min_auc (hard gate).
  double min_auc = 0.90;
  /// Mean false-positive rate (outside records the system lets in)
  /// must be <= max_fpr (hard gate — FPR is the geofencing failure
  /// that matters: an intruder scored as inside).
  double max_fpr = 0.25;
  /// Mean detection latency (records after a ground-truth transition
  /// until the decision follows) should be <= this many records.
  /// Warn-only in CI: latency rides on threshold hysteresis and is
  /// noisier than the rank metrics.
  double max_latency_records = 12.0;
};

/// Per-cell outcome aggregated over repetitions.
struct CellResult {
  std::string id;
  std::string family;
  std::string note;
  int reps = 0;

  math::Summary auc;              // ROC-AUC, outside as positive class
  math::Summary fpr;              // outside predicted inside
  math::Summary latency_records;  // mean records-to-follow per run

  // Thresholds echoed so the JSON artifact is self-gating.
  double min_auc = 0.0;
  double max_fpr = 0.0;
  double max_latency_records = 0.0;

  /// auc.mean >= min_auc && fpr.mean <= max_fpr (the hard CI gate).
  bool passed = false;
  /// latency_records.mean <= max_latency_records (warn-only).
  bool latency_ok = true;

  int updates_total = 0;        // self-enhancement absorptions
  double train_seconds = 0.0;   // mean per rep
  double infer_seconds = 0.0;   // mean per rep
};

struct MatrixOptions {
  /// Independent repetitions per cell (distinct dataset + model
  /// seeds); means over reps are what the thresholds gate.
  int repetitions = 3;
  /// Worker threads for dataset generation and cell evaluation.
  /// Results are bit-identical at any thread count (each (cell, rep)
  /// job is self-seeded and lands in its own slot).
  int num_threads = 1;
  /// Decorrelates model seeds across reps.
  uint64_t seed = 40;
};

/// The single-threaded GEM config every cell trains with. Training is
/// bit-identical at every thread count, so cell metrics are
/// reproducible run-to-run on a given kernel backend.
core::GemConfig MatrixGemConfig();

/// The committed city-scale matrix: >= 2 cells per hazard family.
/// Thresholds are calibrated to the scalar/AVX2 kernels with margin;
/// see DESIGN.md §14 for the calibration flow and how to add a cell.
std::vector<MatrixCell> DefaultMatrix();

/// Mean number of records after each ground-truth inside/outside
/// transition until the prediction first agrees with the new truth.
/// A transition the system never follows before the next one (or the
/// stream end) charges the full span. 0.0 when truth never changes.
double DetectionLatencyRecords(const std::vector<bool>& truth_inside,
                               const std::vector<bool>& predicted_inside);

/// Runs every (cell x repetition) job: parallel dataset generation
/// via rf::GenerateScenarioDatasets, per-job stream transforms, then
/// a fresh GEM train+evaluate per job. Returns one CellResult per
/// cell, in matrix order. Fails with a Status when a scenario config
/// is invalid or training fails.
StatusOr<std::vector<CellResult>> RunMatrix(
    const std::vector<MatrixCell>& cells, const MatrixOptions& options);

/// True iff every cell's hard accuracy gate passed.
bool AllCellsPassed(const std::vector<CellResult>& results);

/// Human table (one row per cell) for terminal output.
std::string FormatMatrixTable(const std::vector<CellResult>& results);

/// {"workload": "scenario_matrix", "repetitions": R, "cells": [...]}
/// — the BENCH_matrix.json shape check_bench.py gates (accuracy
/// thresholds hard-fail, *_seconds columns warn-only).
std::string MatrixJson(const std::vector<CellResult>& results,
                       int repetitions);

}  // namespace gem::eval

#endif  // GEM_EVAL_MATRIX_H_
