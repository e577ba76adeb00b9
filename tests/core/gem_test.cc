#include "core/gem.h"

#include <gtest/gtest.h>

#include "math/metrics.h"
#include "rf/dataset.h"

namespace gem::core {
namespace {

rf::Dataset SmallDataset(int user = 2, uint64_t seed = 77) {
  rf::DatasetOptions options;
  options.train_duration_s = 300.0;
  options.test_segments = 4;
  options.test_segment_duration_s = 90.0;
  options.seed = seed;
  return rf::GenerateScenarioDataset(rf::HomePreset(user), options);
}

GemConfig FastConfig() {
  GemConfig config;
  config.bisage.dimension = 16;
  config.bisage.epochs = 2;
  return config;
}

TEST(GemTest, TrainRequiresRecords) {
  Gem gem(FastConfig());
  EXPECT_FALSE(gem.Train({}).ok());
}

TEST(GemTest, EndToEndDetectionQuality) {
  const rf::Dataset data = SmallDataset();
  Gem gem(FastConfig());
  ASSERT_TRUE(gem.Train(data.train).ok());

  GemOverlay overlay;
  std::vector<bool> actual;
  std::vector<bool> predicted;
  for (const rf::ScanRecord& record : data.test) {
    const InferenceResult result = gem.Infer(record, overlay);
    actual.push_back(record.inside);
    predicted.push_back(result.decision == Decision::kInside);
  }
  const math::InOutMetrics m = math::ComputeInOutMetrics(actual, predicted);
  EXPECT_GT(m.f_in, 0.85);
  EXPECT_GT(m.f_out, 0.8);
}

TEST(GemTest, ScoresRankOutsideAboveInside) {
  const rf::Dataset data = SmallDataset(0, 31);
  Gem gem(FastConfig());
  ASSERT_TRUE(gem.Train(data.train).ok());

  GemOverlay overlay;
  math::Vec scores;
  std::vector<bool> is_outside;
  for (const rf::ScanRecord& record : data.test) {
    const InferenceResult result = gem.Infer(record, overlay);
    scores.push_back(result.score);
    is_outside.push_back(!record.inside);
  }
  EXPECT_GT(math::RocAuc(scores, is_outside), 0.9);
}

TEST(GemTest, UnknownMacRecordIsOutsideAlert) {
  const rf::Dataset data = SmallDataset();
  Gem gem(FastConfig());
  ASSERT_TRUE(gem.Train(data.train).ok());

  rf::ScanRecord alien;
  alien.readings.push_back(
      rf::Reading{"ff:ff:00:00:00:01", -60.0, rf::Band::k2_4GHz});
  GemOverlay overlay;
  const InferenceResult result = gem.Infer(alien, overlay);
  EXPECT_EQ(result.decision, Decision::kOutside);
  EXPECT_DOUBLE_EQ(result.score, 1.0);
}

TEST(GemTest, EmptyRecordIsOutsideAlert) {
  const rf::Dataset data = SmallDataset();
  Gem gem(FastConfig());
  ASSERT_TRUE(gem.Train(data.train).ok());
  GemOverlay overlay;
  const InferenceResult result = gem.Infer(rf::ScanRecord{}, overlay);
  EXPECT_EQ(result.decision, Decision::kOutside);
}

TEST(GemTest, OnlineUpdateAbsorbsConfidentInside) {
  const rf::Dataset data = SmallDataset();
  Gem gem(FastConfig());
  ASSERT_TRUE(gem.Train(data.train).ok());
  GemOverlay overlay;
  int updates = 0;
  for (const rf::ScanRecord& record : data.test) {
    updates += gem.Infer(record, overlay).model_updated ? 1 : 0;
  }
  EXPECT_GT(updates, 5);
}

TEST(GemTest, OnlineUpdateDisabledNeverUpdates) {
  const rf::Dataset data = SmallDataset();
  GemConfig config = FastConfig();
  config.online_update = false;
  Gem gem(config);
  ASSERT_TRUE(gem.Train(data.train).ok());
  GemOverlay overlay;
  for (const rf::ScanRecord& record : data.test) {
    EXPECT_FALSE(gem.Infer(record, overlay).model_updated);
  }
}

TEST(GemTest, StageMethodsComposeLikeInfer) {
  const rf::Dataset data = SmallDataset();
  GemConfig config = FastConfig();
  config.online_update = false;  // keep the model static for comparison
  Gem gem(config);
  ASSERT_TRUE(gem.Train(data.train).ok());
  GemOverlay staged;
  GemOverlay direct;

  for (int i = 0; i < 20; ++i) {
    const rf::ScanRecord& record = data.test[i];
    const auto embedding = gem.Observe(record, staged);
    const InferenceResult via_infer = gem.Infer(record, direct);
    if (!embedding.ok()) {
      EXPECT_EQ(via_infer.decision, Decision::kOutside);
      continue;
    }
    const InferenceResult via_stages = gem.Detect(*embedding, staged);
    EXPECT_EQ(via_stages.decision, via_infer.decision) << "record " << i;
    EXPECT_DOUBLE_EQ(via_stages.score, via_infer.score);
  }
}

}  // namespace
}  // namespace gem::core
