#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "eval/csv.h"
#include "eval/evaluate.h"
#include "eval/systems.h"
#include "eval/table.h"
#include "rf/dataset.h"

namespace gem::eval {
namespace {

rf::Dataset TinyDataset() {
  rf::DatasetOptions options;
  options.train_duration_s = 180.0;
  options.test_segments = 2;
  options.test_segment_duration_s = 60.0;
  options.seed = 5;
  return rf::GenerateScenarioDataset(rf::HomePreset(2), options);
}

TEST(SystemsTest, TableOneListsNinePaperRows) {
  EXPECT_EQ(TableOneAlgorithms().size(), 9u);
}

TEST(SystemsTest, EveryAlgorithmConstructsAndNames) {
  for (const AlgorithmId id : TableOneAlgorithms()) {
    auto system = MakeSystem(id);
    ASSERT_NE(system, nullptr);
    EXPECT_FALSE(system->name().empty());
  }
  EXPECT_NE(MakeSystem(AlgorithmId::kRawOd), nullptr);
}

void ExpectSameResult(const core::InferenceResult& actual,
                      const core::InferenceResult& expected, size_t i) {
  ASSERT_EQ(actual.score, expected.score) << "record " << i;
  ASSERT_EQ(actual.decision, expected.decision) << "record " << i;
  ASSERT_EQ(actual.model_updated, expected.model_updated) << "record " << i;
}

// The GEM arm is a read-only core::Gem plus the overlay its stream
// accumulates: its stream equals Gem::Infer over one explicit overlay,
// bit for bit, and a retrain starts a fresh overlay, so the same
// records replay the same stream.
TEST(SystemsTest, GemArmStreamsThroughOneOverlayAndRetrainResetsIt) {
  const rf::Dataset data = TinyDataset();
  core::GemConfig config;
  config.bisage.dimension = 16;
  config.bisage.epochs = 2;
  const uint64_t seed = 5;
  auto system = MakeSystem(AlgorithmId::kGem, seed, config);
  ASSERT_TRUE(system->Train(data.train).ok());

  core::GemConfig reference_config = config;
  reference_config.bisage.seed ^= seed;  // as MakeSystem seeds the arm
  core::Gem reference(reference_config);
  ASSERT_TRUE(reference.Train(data.train).ok());
  core::GemOverlay overlay;
  std::vector<core::InferenceResult> first;
  int updates = 0;
  for (size_t i = 0; i < data.test.size(); ++i) {
    first.push_back(system->Infer(data.test[i]));
    ExpectSameResult(first.back(), reference.Infer(data.test[i], overlay), i);
    updates += first.back().model_updated ? 1 : 0;
  }
  // The overlay carried self-enhancement from record to record.
  EXPECT_GT(updates, 0);

  ASSERT_TRUE(system->Train(data.train).ok());
  for (size_t i = 0; i < data.test.size(); ++i) {
    ExpectSameResult(system->Infer(data.test[i]), first[i], i);
  }
}

TEST(EvaluateTest, RunsEveryRecordAndCountsUpdates) {
  const rf::Dataset data = TinyDataset();
  core::GemConfig config;
  config.bisage.dimension = 16;
  config.bisage.epochs = 2;
  auto system = MakeSystem(AlgorithmId::kGem, 5, config);
  auto result = Evaluate(*system, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().scores.size(), data.test.size());
  EXPECT_EQ(result.value().is_outside.size(), data.test.size());
  EXPECT_GE(result.value().updates, 0);
  EXPECT_GT(result.value().train_seconds, 0.0);
  EXPECT_GT(result.value().infer_seconds, 0.0);
}

TEST(EvaluateTest, TrainFailureSurfacesStatus) {
  rf::Dataset empty;
  auto system = MakeSystem(AlgorithmId::kSignatureHome);
  auto result = Evaluate(*system, empty);
  EXPECT_FALSE(result.ok());
}

TEST(AggregateTest, SummarizesRuns) {
  math::InOutMetrics a;
  a.f_in = 0.9;
  a.f_out = 0.8;
  math::InOutMetrics b;
  b.f_in = 0.7;
  b.f_out = 1.0;
  const AggregateMetrics agg = Aggregate({a, b});
  EXPECT_DOUBLE_EQ(agg.f_in.mean, 0.8);
  EXPECT_DOUBLE_EQ(agg.f_in.min, 0.7);
  EXPECT_DOUBLE_EQ(agg.f_in.max, 0.9);
  EXPECT_DOUBLE_EQ(agg.f_out.mean, 0.9);
}

TEST(TableTest, FormatsSummaryCells) {
  EXPECT_EQ(FormatSummary({0.98123, 0.941, 1.0}), "0.98 (0.94, 1.00)");
  EXPECT_EQ(FormatValue(0.12345), "0.123");
}

TEST(TableTest, RendersAlignedColumns) {
  TextTable table({"A", "LongHeader"});
  table.AddRow({"value-one", "x"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("A          LongHeader"), std::string::npos);
  EXPECT_NE(out.find("value-one"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(CsvTest, WritesQuotedCells) {
  const std::string path =
      std::string(::testing::TempDir()) + "/eval_test.csv";
  {
    CsvWriter csv(path);
    ASSERT_TRUE(csv.ok());
    csv.WriteHeader({"a", "b"});
    csv.WriteRow({"plain", "with,comma"});
    csv.WriteNumericRow({1.5, -2.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"with,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,-2");
}

TEST(FlagsTest, ParsesCsvAndFullFlags) {
  const char* argv[] = {"prog", "--csv", "/tmp/x", "--full"};
  EXPECT_EQ(CsvDirFromArgs(4, const_cast<char**>(argv)), "/tmp/x");
  EXPECT_TRUE(FullScaleFromArgs(4, const_cast<char**>(argv)));
  const char* joined[] = {"prog", "--full", "--csv=/tmp/y"};
  EXPECT_EQ(CsvDirFromArgs(3, const_cast<char**>(joined)), "/tmp/y");
  const char* dangling[] = {"prog", "--csv"};
  EXPECT_EQ(CsvDirFromArgs(2, const_cast<char**>(dangling)), "");
  const char* bare[] = {"prog"};
  EXPECT_EQ(CsvDirFromArgs(1, const_cast<char**>(bare)), "");
  EXPECT_FALSE(FullScaleFromArgs(1, const_cast<char**>(bare)));
}

TEST(FlagsTest, FlagValueFromArgsTakesTheFirstPrefixMatch) {
  const char* argv[] = {"prog", "--threads", "--threads=1,4",
                        "--bench_out=", "--threads=8"};
  char** args = const_cast<char**>(argv);
  EXPECT_EQ(FlagValueFromArgs(5, args, "--threads="), "1,4");
  // A miss, including the flag's name without its '=': empty.
  EXPECT_EQ(FlagValueFromArgs(5, args, "--trace_out="), "");
  EXPECT_EQ(FlagValueFromArgs(2, args, "--threads="), "");
  // An empty value reads the same as an absent flag.
  EXPECT_EQ(FlagValueFromArgs(5, args, "--bench_out="), "");
}

}  // namespace
}  // namespace gem::eval
