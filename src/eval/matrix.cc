#include "eval/matrix.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "base/check.h"
#include "base/thread_pool.h"
#include "eval/systems.h"
#include "eval/table.h"
#include "math/metrics.h"
#include "obs/trace.h"

namespace gem::eval {
namespace {

/// Per-(cell, rep) measurements, reduced into CellResult afterwards.
struct RunMetrics {
  double auc = 0.0;
  double fpr = 0.0;
  double latency = 0.0;
  int updates = 0;
  double train_seconds = 0.0;
  double infer_seconds = 0.0;
};

double FalsePositiveRate(const std::vector<bool>& is_outside,
                         const std::vector<bool>& predicted_inside) {
  GEM_CHECK(is_outside.size() == predicted_inside.size());
  long outside = 0, let_in = 0;
  for (size_t i = 0; i < is_outside.size(); ++i) {
    if (!is_outside[i]) continue;
    ++outside;
    let_in += predicted_inside[i] ? 1 : 0;
  }
  return outside == 0 ? 0.0
                      : static_cast<double>(let_in) /
                            static_cast<double>(outside);
}

/// Minimal JSON string escaping (cell ids/notes are ASCII by
/// construction; quotes and backslashes are the only realistic
/// hazards).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void AppendSummary(std::string& out, const char* key,
                   const math::Summary& s) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "\"%s_mean\": %.6f, \"%s_min\": %.6f, \"%s_max\": %.6f",
                key, s.mean, key, s.min, key, s.max);
  out += buffer;
}

}  // namespace

core::GemConfig MatrixGemConfig() {
  core::GemConfig config;
  // Paper-scale model, trained single-threaded: cells already run in
  // parallel, and the model's bits do not depend on the thread count.
  config.bisage.num_threads = 1;
  return config;
}

std::vector<MatrixCell> DefaultMatrix() {
  std::vector<MatrixCell> cells;
  // Every cell gets its own scenario seed (world layout) and dataset
  // seed base (trajectories/noise); RunMatrix adds the rep index on
  // top of the dataset seed.
  auto add = [&cells](MatrixCell cell, uint64_t scenario_seed,
                      uint64_t dataset_seed) {
    cell.scenario.seed = scenario_seed;
    cell.options.seed = dataset_seed;
    cells.push_back(std::move(cell));
  };

  {  // The control arm: the paper's quiet single-floor home.
    MatrixCell c;
    c.id = "baseline/small_home";
    c.family = "baseline";
    c.note = "8x6 m flat, default neighborhood";
    c.min_auc = 0.95;
    c.max_fpr = 0.30;
    c.max_latency_records = 6.0;
    add(std::move(c), 21, 300);
  }
  {
    MatrixCell c;
    c.id = "baseline/large_home";
    c.family = "baseline";
    c.note = "14x10 m house, denser AP field";
    c.scenario.width_m = 14.0;
    c.scenario.height_m = 10.0;
    c.scenario.inside_aps = 2;
    c.scenario.near_aps = 10;
    c.scenario.far_aps = 8;
    c.scenario.interior_walls = 4;
    c.min_auc = 0.95;
    c.max_fpr = 0.30;
    c.max_latency_records = 6.0;
    add(std::move(c), 22, 310);
  }

  // --- multi_floor: the confusable neighbor is one slab away ---
  {
    MatrixCell c;
    c.id = "multi_floor/duplex_wood";
    c.family = "multi_floor";
    c.note = "2-floor fence, wood slab 8 dB, 3 adjacent-floor APs";
    c.scenario.floors = 2;
    c.scenario.adjacent_floor_aps = 3;
    c.scenario.floor_slab_db = 8.0;
    c.options.outside_adjacent_floor_fraction = 0.5;
    c.min_auc = 0.72;
    c.max_fpr = 0.55;
    c.max_latency_records = 12.0;
    add(std::move(c), 23, 320);
  }
  {
    MatrixCell c;
    c.id = "multi_floor/flat_concrete";
    c.family = "multi_floor";
    c.note = "1-floor fence, concrete slab 16 dB, neighbors above+below";
    c.scenario.adjacent_floor_aps = 4;
    c.scenario.floor_slab_db = 16.0;
    c.options.outside_adjacent_floor_fraction = 0.7;
    c.min_auc = 0.95;
    c.max_fpr = 0.10;
    c.max_latency_records = 6.0;
    add(std::move(c), 24, 330);
  }
  {
    MatrixCell c;
    c.id = "multi_floor/townhouse_three_story";
    c.family = "multi_floor";
    c.note = "3-floor fence, 10 dB slabs, 5 adjacent-floor APs";
    c.scenario.floors = 3;
    c.scenario.adjacent_floor_aps = 5;
    c.scenario.floor_slab_db = 10.0;
    c.options.outside_adjacent_floor_fraction = 0.5;
    c.min_auc = 0.72;
    c.max_fpr = 0.80;
    c.max_latency_records = 16.0;
    add(std::move(c), 25, 340);
  }

  // --- mac_churn: BSSID rotation storms on the test stream ---
  {
    MatrixCell c;
    c.id = "mac_churn/mild";
    c.family = "mac_churn";
    c.note = "10% of MACs rename every 10 min";
    c.churn = true;
    c.churn_options.period_s = 600.0;
    c.churn_options.rename_fraction = 0.1;
    c.min_auc = 0.95;
    c.max_fpr = 0.15;
    c.max_latency_records = 8.0;
    add(std::move(c), 26, 350);
  }
  {
    MatrixCell c;
    c.id = "mac_churn/storm";
    c.family = "mac_churn";
    c.note = "50% of MACs rename every 4 min";
    c.churn = true;
    c.churn_options.period_s = 240.0;
    c.churn_options.rename_fraction = 0.5;
    c.min_auc = 0.75;
    c.max_fpr = 0.15;
    c.max_latency_records = 20.0;
    add(std::move(c), 27, 360);
  }
  {
    MatrixCell c;
    c.id = "mac_churn/rotate_most";
    c.family = "mac_churn";
    c.note = "90% of MACs rename every 3 min (vendor fleet rotation)";
    c.churn = true;
    c.churn_options.period_s = 180.0;
    c.churn_options.rename_fraction = 0.9;
    c.min_auc = 0.55;
    c.max_fpr = 0.15;
    c.max_latency_records = 30.0;
    add(std::move(c), 28, 370);
  }

  // --- drift: long-horizon RSS movement, self-enhancement on ---
  {
    MatrixCell c;
    c.id = "drift/diurnal_common";
    c.family = "drift";
    c.note = "6 dB common-mode swing, 20 min period";
    c.prop.common_drift_amplitude_db = 6.0;
    c.prop.common_drift_period_s = 1200.0;
    c.min_auc = 0.94;
    c.max_fpr = 0.30;
    c.max_latency_records = 8.0;
    add(std::move(c), 29, 380);
  }
  {
    MatrixCell c;
    c.id = "drift/secular_soak";
    c.family = "drift";
    c.note = "6 dB/h secular trend over a 10-segment soak";
    c.prop.secular_drift_db_per_hour = 6.0;
    c.options.test_segments = 10;
    c.min_auc = 0.93;
    c.max_fpr = 0.45;
    c.max_latency_records = 8.0;
    add(std::move(c), 30, 390);
  }
  {
    MatrixCell c;
    c.id = "drift/per_ap_interferer";
    c.family = "drift";
    c.note = "2.5 dB per-AP sinusoidal drift (interferers)";
    c.prop.drift_amplitude_db = 2.5;
    c.min_auc = 0.75;
    c.max_fpr = 0.60;
    c.max_latency_records = 18.0;
    add(std::move(c), 31, 400);
  }

  // --- device: test stream on a different handset than training ---
  {
    MatrixCell c;
    c.id = "device/cheap_offset";
    c.family = "device";
    c.note = "test device reads 6 dB low";
    c.device = true;
    c.device_profile.rss_offset_db = -6.0;
    c.min_auc = 0.95;
    c.max_fpr = 0.28;
    c.max_latency_records = 8.0;
    add(std::move(c), 32, 410);
  }
  {
    MatrixCell c;
    c.id = "device/compressive_gain";
    c.family = "device";
    c.note = "test device compresses dynamic range (gain 0.85)";
    c.device = true;
    c.device_profile.rss_gain = 0.85;
    c.min_auc = 0.90;
    c.max_fpr = 0.50;
    c.max_latency_records = 10.0;
    add(std::move(c), 33, 420);
  }
  {
    MatrixCell c;
    c.id = "device/hot_handset";
    c.family = "device";
    c.note = "gain 1.15 and +4 dB offset";
    c.device = true;
    c.device_profile.rss_gain = 1.15;
    c.device_profile.rss_offset_db = 4.0;
    c.min_auc = 0.94;
    c.max_fpr = 0.25;
    c.max_latency_records = 8.0;
    add(std::move(c), 34, 430);
  }
  return cells;
}

double DetectionLatencyRecords(const std::vector<bool>& truth_inside,
                               const std::vector<bool>& predicted_inside) {
  GEM_CHECK(truth_inside.size() == predicted_inside.size());
  const size_t n = truth_inside.size();
  double total = 0.0;
  long transitions = 0;
  for (size_t t = 1; t < n; ++t) {
    if (truth_inside[t] == truth_inside[t - 1]) continue;
    // Segment [t, end): end is the next truth flip or the stream end.
    size_t end = t + 1;
    while (end < n && truth_inside[end] == truth_inside[t]) ++end;
    size_t follow = t;
    while (follow < end && predicted_inside[follow] != truth_inside[t]) {
      ++follow;
    }
    // Never following before the segment ends charges the full span.
    total += static_cast<double>(follow - t);
    ++transitions;
  }
  return transitions == 0 ? 0.0 : total / static_cast<double>(transitions);
}

StatusOr<std::vector<CellResult>> RunMatrix(
    const std::vector<MatrixCell>& cells, const MatrixOptions& options) {
  GEM_TRACE_SPAN("eval.run_matrix");
  GEM_CHECK(options.repetitions > 0);
  for (const MatrixCell& cell : cells) {
    const Status valid = cell.scenario.Validate();
    if (!valid.ok()) {
      return Status::InvalidArgument("cell " + cell.id + ": " +
                                     valid.message());
    }
  }

  const int reps = options.repetitions;
  const size_t num_jobs = cells.size() * static_cast<size_t>(reps);

  // Stage 1: every (cell, rep) dataset in parallel. The rep index
  // shifts the dataset seed, so reps are independent draws from the
  // same world.
  std::vector<rf::ScenarioJob> jobs;
  jobs.reserve(num_jobs);
  for (const MatrixCell& cell : cells) {
    for (int rep = 0; rep < reps; ++rep) {
      rf::ScenarioJob job;
      job.scenario = cell.scenario;
      job.options = cell.options;
      job.options.seed += static_cast<uint64_t>(rep);
      job.prop = cell.prop;
      jobs.push_back(std::move(job));
    }
  }
  std::vector<rf::Dataset> datasets =
      rf::GenerateScenarioDatasets(jobs, options.num_threads);

  // Stage 2: per-job stream transform + fresh GEM train/evaluate,
  // parallel across jobs. Each job writes only its own slot, so
  // results are identical at any thread count.
  std::vector<RunMetrics> metrics(num_jobs);
  std::vector<Status> statuses(num_jobs);
  ThreadPool pool(std::max(1, options.num_threads));
  pool.ParallelFor(
      static_cast<long>(num_jobs), [&](int, long begin, long end) {
        for (long i = begin; i < end; ++i) {
          const MatrixCell& cell = cells[static_cast<size_t>(i) /
                                         static_cast<size_t>(reps)];
          const int rep = static_cast<int>(i % reps);
          rf::Dataset& data = datasets[i];
          // Hazards hit the deployed stream only: training happened
          // before the storm, on the reference device.
          if (cell.churn) {
            rf::MacChurnOptions churn = cell.churn_options;
            churn.seed += static_cast<uint64_t>(rep);
            rf::ApplyMacChurn(data.test, churn);
          }
          if (cell.device) {
            rf::ApplyDeviceProfile(data.test, cell.device_profile);
          }

          auto system = MakeSystem(
              AlgorithmId::kGem, options.seed + static_cast<uint64_t>(rep),
              MatrixGemConfig());
          StatusOr<EvalResult> result = Evaluate(*system, data);
          if (!result.ok()) {
            statuses[i] = Status(result.status().code(),
                                 "cell " + cell.id + ": " +
                                     result.status().message());
            continue;
          }
          const EvalResult& r = result.value();
          std::vector<bool> truth_inside(r.is_outside.size());
          for (size_t k = 0; k < r.is_outside.size(); ++k) {
            truth_inside[k] = !r.is_outside[k];
          }
          RunMetrics& m = metrics[i];
          m.auc = math::RocAuc(r.scores, r.is_outside);
          m.fpr = FalsePositiveRate(r.is_outside, r.predicted_inside);
          m.latency = DetectionLatencyRecords(truth_inside,
                                              r.predicted_inside);
          m.updates = r.updates;
          m.train_seconds = r.train_seconds;
          m.infer_seconds = r.infer_seconds;
        }
      });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }

  std::vector<CellResult> results;
  results.reserve(cells.size());
  for (size_t ci = 0; ci < cells.size(); ++ci) {
    const MatrixCell& cell = cells[ci];
    math::Vec auc, fpr, latency;
    CellResult out;
    for (int rep = 0; rep < reps; ++rep) {
      const RunMetrics& m = metrics[ci * static_cast<size_t>(reps) +
                                    static_cast<size_t>(rep)];
      auc.push_back(m.auc);
      fpr.push_back(m.fpr);
      latency.push_back(m.latency);
      out.updates_total += m.updates;
      out.train_seconds += m.train_seconds;
      out.infer_seconds += m.infer_seconds;
    }
    out.id = cell.id;
    out.family = cell.family;
    out.note = cell.note;
    out.reps = reps;
    out.auc = math::Summarize(auc);
    out.fpr = math::Summarize(fpr);
    out.latency_records = math::Summarize(latency);
    out.min_auc = cell.min_auc;
    out.max_fpr = cell.max_fpr;
    out.max_latency_records = cell.max_latency_records;
    out.passed = out.auc.mean >= cell.min_auc && out.fpr.mean <= cell.max_fpr;
    out.latency_ok = out.latency_records.mean <= cell.max_latency_records;
    out.train_seconds /= reps;
    out.infer_seconds /= reps;
    results.push_back(std::move(out));
  }
  return results;
}

bool AllCellsPassed(const std::vector<CellResult>& results) {
  for (const CellResult& r : results) {
    if (!r.passed) return false;
  }
  return true;
}

std::string FormatMatrixTable(const std::vector<CellResult>& results) {
  TextTable table({"Cell", "AUC", ">=", "FPR", "<=", "Latency", "<=",
                   "Updates", "Gate"});
  char buffer[64];
  auto fmt = [&buffer](const char* format, double v) {
    std::snprintf(buffer, sizeof(buffer), format, v);
    return std::string(buffer);
  };
  for (const CellResult& r : results) {
    std::string gate = r.passed ? "pass" : "FAIL";
    if (r.passed && !r.latency_ok) gate = "pass (latency warn)";
    table.AddRow({r.id, FormatSummary(r.auc), fmt("%.2f", r.min_auc),
                  FormatSummary(r.fpr), fmt("%.2f", r.max_fpr),
                  fmt("%.1f", r.latency_records.mean),
                  fmt("%.0f", r.max_latency_records),
                  std::to_string(r.updates_total), gate});
  }
  return table.ToString();
}

std::string MatrixJson(const std::vector<CellResult>& results,
                       int repetitions) {
  std::string out = "{\"workload\": \"scenario_matrix\", \"repetitions\": " +
                    std::to_string(repetitions) + ", \"cells\": [";
  char buffer[256];
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    if (i > 0) out += ", ";
    out += "{\"id\": \"" + JsonEscape(r.id) + "\", \"family\": \"" +
           JsonEscape(r.family) + "\", \"note\": \"" + JsonEscape(r.note) +
           "\", \"reps\": " + std::to_string(r.reps) + ", ";
    AppendSummary(out, "auc", r.auc);
    out += ", ";
    AppendSummary(out, "fpr", r.fpr);
    out += ", ";
    AppendSummary(out, "latency_records", r.latency_records);
    std::snprintf(buffer, sizeof(buffer),
                  ", \"min_auc\": %.6f, \"max_fpr\": %.6f, "
                  "\"max_latency_records\": %.6f, \"passed\": %s, "
                  "\"latency_ok\": %s, \"updates_total\": %d, "
                  "\"train_seconds\": %.6f, \"infer_seconds\": %.6f}",
                  r.min_auc, r.max_fpr, r.max_latency_records,
                  r.passed ? "true" : "false",
                  r.latency_ok ? "true" : "false", r.updates_total,
                  r.train_seconds, r.infer_seconds);
    out += buffer;
  }
  out += "]}\n";
  return out;
}

}  // namespace gem::eval
