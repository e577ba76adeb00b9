#include "embed/graphsage.h"

#include <gtest/gtest.h>

#include "math/vec.h"
#include "tests/common/test_records.h"

namespace gem::embed {
namespace {

using testing::MakeTwoClusters;
using testing::SeparationRatio;

GraphSageConfig FastConfig() {
  GraphSageConfig config;
  config.dimension = 16;
  config.epochs = 3;
  config.seed = 5;
  return config;
}

TEST(GraphSageTest, RejectsEmptyGraph) {
  GraphSage model(FastConfig());
  graph::BipartiteGraph graph;
  EXPECT_FALSE(model.Train(graph).ok());
}

TEST(GraphSageTest, EmbeddingsAreUnitNorm) {
  const auto data = MakeTwoClusters(12, 1);
  GraphSageEmbedder embedder(FastConfig());
  ASSERT_TRUE(embedder.Fit(data.records).ok());
  for (int i = 0; i < embedder.num_train(); ++i) {
    EXPECT_NEAR(math::Norm2(embedder.TrainEmbedding(i)), 1.0, 1e-9);
  }
}

TEST(GraphSageTest, TrainingReducesLoss) {
  const auto data = MakeTwoClusters(12, 2);
  graph::BipartiteGraph graph;
  for (const auto& record : data.records) graph.AddRecord(record);

  GraphSageConfig one = FastConfig();
  one.epochs = 1;
  GraphSage short_model(one);
  ASSERT_TRUE(short_model.Train(graph).ok());

  GraphSageConfig many = FastConfig();
  many.epochs = 8;
  GraphSage long_model(many);
  ASSERT_TRUE(long_model.Train(graph).ok());
  EXPECT_LT(long_model.last_epoch_loss(), short_model.last_epoch_loss());
}

TEST(GraphSageTest, SeparatesClustersSomewhat) {
  const auto data = MakeTwoClusters(20, 3);
  GraphSageConfig config = FastConfig();
  config.epochs = 6;
  GraphSageEmbedder embedder(config);
  ASSERT_TRUE(embedder.Fit(data.records).ok());
  std::vector<math::Vec> embeddings;
  for (int i = 0; i < embedder.num_train(); ++i) {
    embeddings.push_back(embedder.TrainEmbedding(i));
  }
  EXPECT_LT(SeparationRatio(embeddings, data.per_cluster), 1.0);
}

TEST(GraphSageTest, InductiveEmbedding) {
  const auto data = MakeTwoClusters(12, 4);
  GraphSageEmbedder embedder(FastConfig());
  ASSERT_TRUE(embedder.Fit(data.records).ok());
  math::Rng rng(42);
  const auto e = embedder.EmbedNew(
      testing::NoisyRecord({"a0", "a1", "a2"}, {}, rng));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(static_cast<int>(e->size()), embedder.dimension());
}

// Fit runs once: a second Fit would append every training record to
// the graph again and retrain on top of the first run's weights.
TEST(GraphSageTest, SecondFitIsRefusedAndChangesNothing) {
  const auto data = MakeTwoClusters(12, 6);
  GraphSageEmbedder embedder(FastConfig());
  ASSERT_TRUE(embedder.Fit(data.records).ok());
  const math::Vec before = embedder.TrainEmbedding(0);
  EXPECT_EQ(embedder.Fit(data.records).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(embedder.num_train(), static_cast<int>(data.records.size()));
  EXPECT_EQ(embedder.TrainEmbedding(0), before);
}

// Train runs once: a second call would fine-tune the first run's
// weights with a fresh optimizer.
TEST(GraphSageTest, SecondTrainIsRefusedAndChangesNothing) {
  const auto data = MakeTwoClusters(12, 7);
  graph::BipartiteGraph graph;
  for (const auto& record : data.records) graph.AddRecord(record);
  GraphSage model(FastConfig());
  ASSERT_TRUE(model.Train(graph).ok());
  const double loss = model.last_epoch_loss();
  std::vector<math::Vec> before;
  for (graph::NodeId node = 0; node < graph.num_nodes(); ++node) {
    before.push_back(model.Embedding(graph, node));
  }
  EXPECT_EQ(model.Train(graph).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(model.trained());
  EXPECT_EQ(model.last_epoch_loss(), loss);
  for (graph::NodeId node = 0; node < graph.num_nodes(); ++node) {
    EXPECT_EQ(model.Embedding(graph, node), before[node]) << "node " << node;
  }
}

TEST(GraphSageTest, UnknownOnlyRecordUnembeddable) {
  const auto data = MakeTwoClusters(12, 5);
  GraphSageEmbedder embedder(FastConfig());
  ASSERT_TRUE(embedder.Fit(data.records).ok());
  rf::ScanRecord alien;
  alien.readings.push_back(rf::Reading{"xyz", -60.0, rf::Band::k2_4GHz});
  EXPECT_FALSE(embedder.EmbedNew(alien).ok());
}

}  // namespace
}  // namespace gem::embed
