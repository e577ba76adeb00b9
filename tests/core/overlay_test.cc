// Base/overlay split contract tests: the staged read API
// (Observe/Detect/Update against an explicit GemOverlay) must replay
// Infer bit for bit, the base must stay byte-frozen while the overlay
// absorbs all serving side effects, and Compacted() must fold the
// overlay into a standalone model that continues the stream
// bit-identically.

#include "core/overlay.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/gem.h"
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

TEST(OverlayLimitsTest, ValidateRejectsNegativeFields) {
  OverlayLimits limits;
  EXPECT_TRUE(limits.Validate().ok());  // zeros = unlimited
  limits.max_new_nodes = -1;
  EXPECT_EQ(limits.Validate().code(), StatusCode::kInvalidArgument);
  limits.max_new_nodes = 4;
  limits.max_absorbed = -2;
  EXPECT_EQ(limits.Validate().code(), StatusCode::kInvalidArgument);
  limits.max_absorbed = 10;
  EXPECT_TRUE(limits.Validate().ok());
}

TEST(OverlayTest, EmptyAndCompactionDue) {
  GemOverlay overlay;
  EXPECT_TRUE(overlay.empty());
  EXPECT_FALSE(overlay.compaction_due());  // unlimited by default

  const rf::Dataset data = SmallDataset();
  Gem gem(FastConfig());
  ASSERT_TRUE(gem.Train(data.train).ok());

  overlay.limits.max_new_nodes = 1;
  (void)gem.Infer(data.test.front(), overlay);
  EXPECT_FALSE(overlay.empty());
  EXPECT_TRUE(overlay.compaction_due());
}

// Staged composition through an explicit overlay: Observe -> Detect ->
// Update replays Infer exactly (the Table III decomposition).
TEST(OverlayTest, StagedOverlayCallsComposeLikeInfer) {
  const rf::Dataset data = SmallDataset(0, 31);
  Gem gem(FastConfig());
  ASSERT_TRUE(gem.Train(data.train).ok());

  GemOverlay direct;
  GemOverlay staged;
  for (const rf::ScanRecord& record : data.test) {
    const InferenceResult whole = gem.Infer(record, direct);
    const StatusOr<math::Vec> embedding = gem.Observe(record, staged);
    if (!embedding.ok()) {
      EXPECT_EQ(whole.decision, Decision::kOutside);
      continue;
    }
    const InferenceResult detected = gem.Detect(*embedding, staged);
    ASSERT_EQ(whole.score, detected.score);
    ASSERT_EQ(whole.decision, detected.decision);
    if (detected.decision == Decision::kInside) {
      const StatusOr<bool> updated = gem.Update(*embedding, staged);
      ASSERT_TRUE(updated.ok());
      ASSERT_EQ(whole.model_updated, updated.value());
    }
  }
}

// The overlay must actually absorb the side effects: after serving a
// stream through an explicit overlay, a FRESH overlay over the same
// base sees the untouched trained model.
TEST(OverlayTest, BaseStaysFrozenUnderOverlayTraffic) {
  const rf::Dataset data = SmallDataset();
  Gem gem(FastConfig());
  ASSERT_TRUE(gem.Train(data.train).ok());

  // Baseline: first-record result against the pristine model.
  GemOverlay probe_before;
  const InferenceResult before = gem.Infer(data.test.front(), probe_before);

  GemOverlay traffic;
  for (const rf::ScanRecord& record : data.test) {
    (void)gem.Infer(record, traffic);
  }
  EXPECT_FALSE(traffic.empty());

  GemOverlay probe_after;
  const InferenceResult after = gem.Infer(data.test.front(), probe_after);
  EXPECT_EQ(before.score, after.score);
  EXPECT_EQ(before.decision, after.decision);
  EXPECT_EQ(before.model_updated, after.model_updated);
}

// Compacted() is the write-back half: the folded model must continue
// the stream exactly where base+overlay left off.
TEST(OverlayTest, CompactedContinuesStreamBitExactly) {
  const rf::Dataset data = SmallDataset();
  Gem gem(FastConfig());
  ASSERT_TRUE(gem.Train(data.train).ok());

  const size_t split_at = data.test.size() / 2;
  GemOverlay overlay;
  for (size_t i = 0; i < split_at; ++i) {
    (void)gem.Infer(data.test[i], overlay);
  }
  StatusOr<Gem> compacted = gem.Compacted(overlay);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();

  GemOverlay compacted_overlay;
  for (size_t i = split_at; i < data.test.size(); ++i) {
    const InferenceResult cont = gem.Infer(data.test[i], overlay);
    const InferenceResult fold =
        compacted->Infer(data.test[i], compacted_overlay);
    ASSERT_EQ(cont.score, fold.score) << "record " << i;
    ASSERT_EQ(cont.decision, fold.decision) << "record " << i;
    ASSERT_EQ(cont.model_updated, fold.model_updated) << "record " << i;
  }
}

TEST(OverlayTest, UntrainedOverlayCallsReportFailedPrecondition) {
  Gem gem(FastConfig());
  GemOverlay overlay;
  EXPECT_EQ(gem.Observe(rf::ScanRecord{}, overlay).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(gem.Update(math::Vec{0.0}, overlay).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(gem.Compacted(overlay).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace gem::core
