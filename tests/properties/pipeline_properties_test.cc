// Parameterized property sweeps across the GEM pipeline: invariants
// that must hold for every seed, embedding dimension, bin count, and
// edge-weight family.

#include <gtest/gtest.h>

#include <cmath>

#include "core/gem.h"
#include "math/metrics.h"
#include "rf/dataset.h"

namespace gem::core {
namespace {

rf::Dataset TinyDataset(uint64_t seed) {
  rf::DatasetOptions options;
  options.train_duration_s = 240.0;
  options.test_segments = 2;
  options.test_segment_duration_s = 90.0;
  options.seed = seed;
  return rf::GenerateScenarioDataset(rf::HomePreset(2), options);
}

// ---------------------------------------------------------------------
// Across seeds: the full pipeline always trains, always produces
// decisions for every record, keeps scores finite, and stays
// deterministic given the same inputs.

class SeedProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedProperties, PipelineTotalAndFinite) {
  const rf::Dataset data = TinyDataset(GetParam());
  GemConfig config;
  config.bisage.dimension = 16;
  config.bisage.epochs = 2;
  Gem gem(config);
  ASSERT_TRUE(gem.Train(data.train).ok());
  GemOverlay overlay;
  for (const rf::ScanRecord& record : data.test) {
    const InferenceResult result = gem.Infer(record, overlay);
    EXPECT_TRUE(std::isfinite(result.score));
    // Hbar is anchored to the training min/max: a streamed record can
    // score slightly below 0 (more typical than any training sample)
    // but never wildly so.
    EXPECT_GE(result.score, -0.5);
  }
}

TEST_P(SeedProperties, DeterministicAcrossRuns) {
  const rf::Dataset data = TinyDataset(GetParam());
  GemConfig config;
  config.bisage.dimension = 16;
  config.bisage.epochs = 2;
  Gem a(config);
  Gem b(config);
  ASSERT_TRUE(a.Train(data.train).ok());
  ASSERT_TRUE(b.Train(data.train).ok());
  GemOverlay overlay_a;
  GemOverlay overlay_b;
  for (int i = 0; i < 30; ++i) {
    const InferenceResult ra = a.Infer(data.test[i], overlay_a);
    const InferenceResult rb = b.Infer(data.test[i], overlay_b);
    EXPECT_EQ(ra.decision, rb.decision) << "record " << i;
    EXPECT_DOUBLE_EQ(ra.score, rb.score);
    EXPECT_EQ(ra.model_updated, rb.model_updated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedProperties,
                         ::testing::Values(1u, 17u, 99u, 4242u));

// ---------------------------------------------------------------------
// Across embedding dimensions: embeddings are unit-norm, dimension is
// honored, and the detector separates train-core from far-away records.

class DimensionProperties : public ::testing::TestWithParam<int> {};

TEST_P(DimensionProperties, EmbeddingsUnitNormAtRequestedDimension) {
  const rf::Dataset data = TinyDataset(7);
  GemConfig config;
  config.bisage.dimension = GetParam();
  config.bisage.epochs = 2;
  Gem gem(config);
  ASSERT_TRUE(gem.Train(data.train).ok());
  for (int i = 0; i < 20; ++i) {
    const math::Vec e = gem.embedder().TrainEmbedding(i);
    ASSERT_EQ(static_cast<int>(e.size()), GetParam());
    EXPECT_NEAR(math::Norm2(e), 1.0, 1e-9);
  }
  // A far-away record (unknown MACs only) must alert regardless of d.
  rf::ScanRecord alien;
  alien.readings.push_back(rf::Reading{"zz:zz", -60.0, rf::Band::k2_4GHz});
  GemOverlay overlay;
  EXPECT_EQ(gem.Infer(alien, overlay).decision, Decision::kOutside);
}

INSTANTIATE_TEST_SUITE_P(Dims, DimensionProperties,
                         ::testing::Values(8, 16, 32, 48));

// ---------------------------------------------------------------------
// Across histogram bin counts: detection quality holds and thresholds
// stay ordered (tau_l <= tau_u).

class BinProperties : public ::testing::TestWithParam<int> {};

TEST_P(BinProperties, ThresholdsOrderedAndQualityHolds) {
  const rf::Dataset data = TinyDataset(11);
  GemConfig config;
  config.bisage.dimension = 16;
  config.bisage.epochs = 2;
  config.detector.bins = GetParam();
  Gem gem(config);
  ASSERT_TRUE(gem.Train(data.train).ok());
  EXPECT_LE(gem.detector().hbar_tau_lower(),
            gem.detector().hbar_tau_upper());

  GemOverlay overlay;
  std::vector<bool> actual, predicted;
  for (const rf::ScanRecord& record : data.test) {
    actual.push_back(record.inside);
    predicted.push_back(gem.Infer(record, overlay).decision ==
                        Decision::kInside);
  }
  const math::InOutMetrics m = math::ComputeInOutMetrics(actual, predicted);
  EXPECT_GT(m.f_in, 0.7) << "bins=" << GetParam();
  EXPECT_GT(m.f_out, 0.6) << "bins=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Bins, BinProperties,
                         ::testing::Values(5, 10, 25, 60));

// ---------------------------------------------------------------------
// Across edge-weight families: the graph stays positive-weighted and
// the pipeline remains functional.

class WeightProperties
    : public ::testing::TestWithParam<graph::WeightKind> {};

TEST_P(WeightProperties, PositiveWeightsAndWorkingPipeline) {
  const rf::Dataset data = TinyDataset(23);
  GemConfig config;
  config.bisage.dimension = 16;
  config.bisage.epochs = 2;
  config.edge_weight.kind = GetParam();
  Gem gem(config);
  ASSERT_TRUE(gem.Train(data.train).ok());

  const graph::BipartiteGraph& g = gem.embedder().graph();
  for (graph::NodeId node = 0; node < g.num_nodes(); ++node) {
    for (const graph::Neighbor& nb : g.neighbors(node)) {
      EXPECT_GT(nb.weight, 0.0);
    }
  }
  GemOverlay overlay;
  std::vector<bool> actual, predicted;
  for (const rf::ScanRecord& record : data.test) {
    actual.push_back(record.inside);
    predicted.push_back(gem.Infer(record, overlay).decision ==
                        Decision::kInside);
  }
  const math::InOutMetrics m = math::ComputeInOutMetrics(actual, predicted);
  EXPECT_GT(m.f_in + m.f_out, 1.2);
}

INSTANTIATE_TEST_SUITE_P(Weights, WeightProperties,
                         ::testing::Values(graph::WeightKind::kLinearOffset,
                                           graph::WeightKind::kExponential,
                                           graph::WeightKind::kBinary,
                                           graph::WeightKind::kSquaredOffset));

}  // namespace
}  // namespace gem::core
