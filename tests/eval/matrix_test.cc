#include "eval/matrix.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

namespace gem::eval {
namespace {

// --- DetectionLatencyRecords -------------------------------------

TEST(DetectionLatencyTest, NoTransitionsIsZero) {
  EXPECT_EQ(DetectionLatencyRecords({true, true, true}, {false, true, true}),
            0.0);
  EXPECT_EQ(DetectionLatencyRecords({}, {}), 0.0);
}

TEST(DetectionLatencyTest, ImmediateFollowIsZero) {
  // Truth flips at index 2 and the prediction is already right there.
  EXPECT_EQ(DetectionLatencyRecords({true, true, false, false},
                                    {true, true, false, false}),
            0.0);
}

TEST(DetectionLatencyTest, CountsRecordsUntilFollow) {
  // Flip at 2; prediction follows at 4 -> latency 2.
  EXPECT_EQ(DetectionLatencyRecords({true, true, false, false, false},
                                    {true, true, true, true, false}),
            2.0);
}

TEST(DetectionLatencyTest, NeverFollowingChargesFullSegment) {
  // Flip at 2, segment runs to the end (3 records), never followed.
  EXPECT_EQ(DetectionLatencyRecords({true, true, false, false, false},
                                    {true, true, true, true, true}),
            3.0);
}

TEST(DetectionLatencyTest, AveragesOverTransitions) {
  // Flip at 1 (followed after 1 record), flip at 3 (followed at once).
  EXPECT_EQ(DetectionLatencyRecords({true, false, false, true, true},
                                    {true, true, false, true, true}),
            0.5);
}

// --- DefaultMatrix shape -----------------------------------------

TEST(DefaultMatrixTest, CoversEveryHazardFamilyTwice) {
  const std::vector<MatrixCell> cells = DefaultMatrix();
  EXPECT_GE(cells.size(), 12u);
  std::map<std::string, int> families;
  std::set<std::string> ids;
  for (const MatrixCell& cell : cells) {
    families[cell.family]++;
    EXPECT_TRUE(ids.insert(cell.id).second) << "duplicate id " << cell.id;
    EXPECT_TRUE(cell.scenario.Validate().ok()) << cell.id;
    EXPECT_GT(cell.min_auc, 0.5) << cell.id;
    EXPECT_LE(cell.min_auc, 1.0) << cell.id;
    EXPECT_GT(cell.max_fpr, 0.0) << cell.id;
    EXPECT_LT(cell.max_fpr, 1.0) << cell.id;
    EXPECT_GT(cell.max_latency_records, 0.0) << cell.id;
    // The id is "family/variant" — keyed that way in the JSON.
    EXPECT_EQ(cell.id.rfind(cell.family + "/", 0), 0u) << cell.id;
  }
  for (const char* family :
       {"multi_floor", "mac_churn", "drift", "device"}) {
    EXPECT_GE(families[family], 2) << family;
  }
}

TEST(DefaultMatrixTest, HazardKnobsAreActuallySet) {
  // Guards against a refactor quietly zeroing the physics: every
  // non-baseline family must differ from a default-constructed world.
  for (const MatrixCell& cell : DefaultMatrix()) {
    if (cell.family == "multi_floor") {
      EXPECT_GT(cell.scenario.adjacent_floor_aps, 0) << cell.id;
      EXPECT_GT(cell.scenario.floor_slab_db, 0.0) << cell.id;
      EXPECT_GT(cell.options.outside_adjacent_floor_fraction, 0.0)
          << cell.id;
    } else if (cell.family == "mac_churn") {
      EXPECT_TRUE(cell.churn) << cell.id;
      EXPECT_GT(cell.churn_options.rename_fraction, 0.0) << cell.id;
    } else if (cell.family == "drift") {
      const rf::PropagationConfig defaults;
      const bool drifts =
          cell.prop.secular_drift_db_per_hour > 0.0 ||
          cell.prop.common_drift_amplitude_db >
              defaults.common_drift_amplitude_db ||
          cell.prop.drift_amplitude_db > defaults.drift_amplitude_db;
      EXPECT_TRUE(drifts) << cell.id;
    } else if (cell.family == "device") {
      EXPECT_TRUE(cell.device) << cell.id;
      const bool shifted = cell.device_profile.rss_offset_db != 0.0 ||
                           cell.device_profile.rss_gain != 1.0;
      EXPECT_TRUE(shifted) << cell.id;
    }
  }
}

// --- RunMatrix ----------------------------------------------------

/// Two tiny fast cells (seconds, not minutes) spanning a clean and a
/// multi-floor world.
std::vector<MatrixCell> TinyMatrix() {
  std::vector<MatrixCell> cells(2);
  cells[0].id = "baseline/tiny";
  cells[0].family = "baseline";
  cells[0].scenario.seed = 61;
  cells[0].options.train_duration_s = 90.0;
  cells[0].options.test_segments = 2;
  cells[0].options.test_segment_duration_s = 45.0;
  cells[0].options.seed = 71;
  cells[0].min_auc = 0.5;
  cells[0].max_fpr = 0.99;

  cells[1].id = "multi_floor/tiny";
  cells[1].family = "multi_floor";
  cells[1].scenario.floors = 2;
  cells[1].scenario.adjacent_floor_aps = 2;
  cells[1].scenario.floor_slab_db = 10.0;
  cells[1].scenario.seed = 62;
  cells[1].options = cells[0].options;
  cells[1].options.seed = 72;
  cells[1].options.outside_adjacent_floor_fraction = 1.0;
  cells[1].min_auc = 0.5;
  cells[1].max_fpr = 0.99;
  return cells;
}

TEST(RunMatrixTest, ProducesOneResultPerCellWithSaneMetrics) {
  MatrixOptions options;
  options.repetitions = 2;
  const auto results = RunMatrix(TinyMatrix(), options);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results.value().size(), 2u);
  for (const CellResult& r : results.value()) {
    EXPECT_EQ(r.reps, 2);
    EXPECT_GE(r.auc.min, 0.0);
    EXPECT_LE(r.auc.max, 1.0);
    EXPECT_GE(r.fpr.min, 0.0);
    EXPECT_LE(r.fpr.max, 1.0);
    EXPECT_GE(r.latency_records.min, 0.0);
    EXPECT_GT(r.train_seconds, 0.0);
    // The thresholds above are trivially satisfiable — the gate
    // logic itself is what's under test.
    EXPECT_TRUE(r.passed) << r.id;
  }
  EXPECT_TRUE(AllCellsPassed(results.value()));
}

TEST(RunMatrixTest, AccuracyMetricsAreThreadCountInvariant) {
  MatrixOptions one;
  one.repetitions = 2;
  one.num_threads = 1;
  MatrixOptions four = one;
  four.num_threads = 4;
  const auto a = RunMatrix(TinyMatrix(), one);
  const auto b = RunMatrix(TinyMatrix(), four);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (size_t i = 0; i < a.value().size(); ++i) {
    // Bit-equality, not tolerance: datasets are seeded per job and
    // training is bit-identical at every thread count.
    EXPECT_EQ(a.value()[i].auc.mean, b.value()[i].auc.mean) << i;
    EXPECT_EQ(a.value()[i].fpr.mean, b.value()[i].fpr.mean) << i;
    EXPECT_EQ(a.value()[i].latency_records.mean,
              b.value()[i].latency_records.mean)
        << i;
    EXPECT_EQ(a.value()[i].updates_total, b.value()[i].updates_total) << i;
  }
}

TEST(RunMatrixTest, FailedThresholdFlagsCell) {
  std::vector<MatrixCell> cells = TinyMatrix();
  cells.resize(1);
  cells[0].min_auc = 1.01;  // unsatisfiable
  MatrixOptions options;
  options.repetitions = 1;
  const auto results = RunMatrix(cells, options);
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results.value()[0].passed);
  EXPECT_FALSE(AllCellsPassed(results.value()));
}

TEST(RunMatrixTest, InvalidScenarioSurfacesStatusNotCrash) {
  std::vector<MatrixCell> cells = TinyMatrix();
  cells[1].scenario.floors = 0;
  const auto results = RunMatrix(cells, MatrixOptions());
  ASSERT_FALSE(results.ok());
  EXPECT_NE(results.status().message().find("multi_floor/tiny"),
            std::string::npos);
}

// --- JSON artifact ------------------------------------------------

TEST(MatrixJsonTest, EmitsSelfGatingCells) {
  MatrixOptions options;
  options.repetitions = 1;
  std::vector<MatrixCell> cells = TinyMatrix();
  cells.resize(1);
  const auto results = RunMatrix(cells, options);
  ASSERT_TRUE(results.ok());
  const std::string json = MatrixJson(results.value(), options.repetitions);
  EXPECT_NE(json.find("\"workload\": \"scenario_matrix\""),
            std::string::npos);
  EXPECT_NE(json.find("\"id\": \"baseline/tiny\""), std::string::npos);
  // Every field the check_bench.py accuracy gate reads.
  for (const char* key :
       {"\"auc_mean\"", "\"fpr_mean\"", "\"latency_records_mean\"",
        "\"min_auc\"", "\"max_fpr\"", "\"max_latency_records\"",
        "\"passed\"", "\"train_seconds\"", "\"infer_seconds\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace gem::eval
