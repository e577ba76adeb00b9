#include "embed/bisage.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "math/vec.h"
#include "tests/common/test_records.h"

namespace gem::embed {
namespace {

using testing::MakeTwoClusters;
using testing::SeparationRatio;

BiSageConfig FastConfig() {
  BiSageConfig config;
  config.dimension = 16;
  config.epochs = 3;
  config.seed = 3;
  return config;
}

TEST(BiSageTest, RejectsEmptyGraph) {
  BiSage model(FastConfig());
  graph::BipartiteGraph graph;
  EXPECT_FALSE(model.Train(graph).ok());
}

TEST(BiSageTest, EmbeddingsAreUnitNorm) {
  const auto data = MakeTwoClusters(15, 1);
  BiSageEmbedder embedder(FastConfig());
  ASSERT_TRUE(embedder.Fit(data.records).ok());
  for (int i = 0; i < embedder.num_train(); ++i) {
    EXPECT_NEAR(math::Norm2(embedder.TrainEmbedding(i)), 1.0, 1e-9);
  }
}

TEST(BiSageTest, TrainingReducesLoss) {
  const auto data = MakeTwoClusters(15, 2);
  graph::BipartiteGraph graph;
  for (const auto& record : data.records) graph.AddRecord(record);

  BiSageConfig one_epoch = FastConfig();
  one_epoch.epochs = 1;
  BiSage short_model(one_epoch);
  ASSERT_TRUE(short_model.Train(graph).ok());

  BiSageConfig many_epochs = FastConfig();
  many_epochs.epochs = 8;
  BiSage long_model(many_epochs);
  ASSERT_TRUE(long_model.Train(graph).ok());

  EXPECT_LT(long_model.last_epoch_loss(), short_model.last_epoch_loss());
}

TEST(BiSageTest, SeparatesClusters) {
  const auto data = MakeTwoClusters(20, 3);
  BiSageConfig config = FastConfig();
  config.epochs = 6;
  BiSageEmbedder embedder(config);
  ASSERT_TRUE(embedder.Fit(data.records).ok());

  std::vector<math::Vec> embeddings;
  for (int i = 0; i < embedder.num_train(); ++i) {
    embeddings.push_back(embedder.TrainEmbedding(i));
  }
  EXPECT_LT(SeparationRatio(embeddings, data.per_cluster), 0.8);
}

TEST(BiSageTest, DeterministicEmbeddings) {
  const auto data = MakeTwoClusters(10, 4);
  BiSageEmbedder a(FastConfig());
  BiSageEmbedder b(FastConfig());
  ASSERT_TRUE(a.Fit(data.records).ok());
  ASSERT_TRUE(b.Fit(data.records).ok());
  for (int i = 0; i < a.num_train(); ++i) {
    const math::Vec ea = a.TrainEmbedding(i);
    const math::Vec eb = b.TrainEmbedding(i);
    for (size_t k = 0; k < ea.size(); ++k) {
      EXPECT_DOUBLE_EQ(ea[k], eb[k]);
    }
  }
  // Repeated queries on the same model agree too.
  const math::Vec e1 = a.TrainEmbedding(0);
  const math::Vec e2 = a.TrainEmbedding(0);
  for (size_t k = 0; k < e1.size(); ++k) EXPECT_DOUBLE_EQ(e1[k], e2[k]);
}

TEST(BiSageTest, InductiveEmbeddingLandsNearItsCluster) {
  const auto data = MakeTwoClusters(20, 5);
  BiSageConfig config = FastConfig();
  config.epochs = 6;
  BiSageEmbedder embedder(config);
  ASSERT_TRUE(embedder.Fit(data.records).ok());

  // A fresh record from cluster A (never seen in training).
  math::Rng rng(99);
  const rf::ScanRecord fresh = testing::NoisyRecord(
      {"a0", "a1", "a2", "a3", "a4"}, {"s0"}, rng);
  const auto embedding = embedder.EmbedNew(fresh);
  ASSERT_TRUE(embedding.ok());

  double dist_a = 0.0;
  double dist_b = 0.0;
  for (int i = 0; i < data.per_cluster; ++i) {
    dist_a += math::Distance(*embedding, embedder.TrainEmbedding(i));
    dist_b += math::Distance(
        *embedding, embedder.TrainEmbedding(data.per_cluster + i));
  }
  EXPECT_LT(dist_a, dist_b);
}

TEST(BiSageTest, UnknownMacsOnlyRecordIsUnembeddable) {
  const auto data = MakeTwoClusters(10, 6);
  BiSageEmbedder embedder(FastConfig());
  ASSERT_TRUE(embedder.Fit(data.records).ok());

  rf::ScanRecord alien;
  alien.readings.push_back(rf::Reading{"never-seen-1", -60.0,
                                       rf::Band::k2_4GHz});
  alien.readings.push_back(rf::Reading{"never-seen-2", -70.0,
                                       rf::Band::k2_4GHz});
  EXPECT_FALSE(embedder.EmbedNew(alien).ok());

  // Its MACs are now known (the record joined the graph), so a second
  // record sharing them becomes embeddable.
  rf::ScanRecord follower;
  follower.readings.push_back(rf::Reading{"never-seen-1", -62.0,
                                          rf::Band::k2_4GHz});
  EXPECT_TRUE(embedder.EmbedNew(follower).ok());
}

// The RecordEmbedder stream runs over the embedder's own overlay: the
// same bits as an explicit overlay, while the graph keeps its post-Fit
// shape.
TEST(BiSageTest, RecordStreamMatchesExplicitOverlayAndFreezesGraph) {
  const auto data = MakeTwoClusters(10, 9);
  BiSageEmbedder streamed(FastConfig());
  BiSageEmbedder overlaid(FastConfig());
  ASSERT_TRUE(streamed.Fit(data.records).ok());
  ASSERT_TRUE(overlaid.Fit(data.records).ok());
  const int fitted_nodes = streamed.graph().num_nodes();

  // Known MACs, new MACs riding along, and an unembeddable record
  // whose MACs a later record shares.
  math::Rng rng(19);
  std::vector<rf::ScanRecord> stream;
  for (int i = 0; i < 6; ++i) {
    stream.push_back(testing::NoisyRecord({"a0", "a1", "a2", "new0"},
                                          {"s0"}, rng));
    stream.push_back(testing::NoisyRecord({"b0", "b1", "b2"}, {"s1"}, rng));
  }
  rf::ScanRecord alien;
  alien.readings.push_back(rf::Reading{"alien", -60.0, rf::Band::k2_4GHz});
  stream.push_back(alien);
  alien.readings.push_back(rf::Reading{"b3", -55.0, rf::Band::k2_4GHz});
  stream.push_back(alien);

  EmbedderOverlay overlay;
  std::vector<StatusCode> codes;
  for (size_t i = 0; i < stream.size(); ++i) {
    const StatusOr<math::Vec> a = streamed.EmbedNew(stream[i]);
    const StatusOr<math::Vec> b = overlaid.EmbedNew(stream[i], overlay);
    ASSERT_EQ(a.code(), b.code()) << "record " << i;
    codes.push_back(a.code());
    if (a.ok()) {
      ASSERT_EQ(a->size(), b->size());
      EXPECT_EQ(std::memcmp(a->data(), b->data(), a->size() * sizeof(double)),
                0)
          << "record " << i;
    }
  }
  EXPECT_EQ(codes[stream.size() - 2], StatusCode::kNotFound);
  EXPECT_EQ(codes.back(), StatusCode::kOk);
  EXPECT_EQ(streamed.graph().num_nodes(), fitted_nodes);
}

// Fit runs once. A second Fit, or a Fit after RestoreFitted, would
// append every training record to the graph again.
TEST(BiSageTest, SecondFitIsRefusedAndChangesNothing) {
  const auto data = MakeTwoClusters(10, 10);
  BiSageEmbedder embedder(FastConfig());
  ASSERT_TRUE(embedder.Fit(data.records).ok());
  const int nodes = embedder.graph().num_nodes();
  const math::Vec before = embedder.TrainEmbedding(0);
  EXPECT_EQ(embedder.Fit(data.records).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(embedder.graph().num_nodes(), nodes);
  EXPECT_EQ(embedder.num_train(), static_cast<int>(data.records.size()));
  EXPECT_EQ(embedder.TrainEmbedding(0), before);

  graph::BipartiteGraph graph;
  for (const auto& record : data.records) graph.AddRecord(record);
  BiSageEmbedder restored(FastConfig());
  ASSERT_TRUE(restored
                  .RestoreFitted(std::move(graph), embedder.train_nodes(),
                                 embedder.model().ExportTrained())
                  .ok());
  EXPECT_EQ(restored.Fit(data.records).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(restored.graph().num_nodes(), nodes);
}

TEST(BiSageTest, AuxiliaryDiffersFromPrimary) {
  const auto data = MakeTwoClusters(10, 7);
  graph::BipartiteGraph graph;
  for (const auto& record : data.records) graph.AddRecord(record);
  BiSage model(FastConfig());
  ASSERT_TRUE(model.Train(graph).ok());
  const math::Vec h = model.PrimaryEmbedding(graph, 0);
  const math::Vec l = model.AuxiliaryEmbedding(graph, 0);
  EXPECT_GT(math::Distance(h, l), 1e-3);
}

TEST(BiSageTest, ConfigValidation) {
  BiSageConfig config;
  config.fanouts = {5};  // must match num_layers = 2
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);

  // Construction soft-fails: the model is inert and Train reports the
  // validation error instead of crashing.
  BiSage model(config);
  EXPECT_EQ(model.config_status().code(), StatusCode::kInvalidArgument);
  graph::BipartiteGraph graph;
  EXPECT_EQ(model.Train(graph).code(), StatusCode::kInvalidArgument);
}

// The layer-1 MAC table rests on record nodes starting from zero rows.
// A restored state comes from outside the process (a snapshot), so the
// invariant is checked there rather than assumed.
TEST(BiSageTest, RestoreRejectsNonZeroRecordRows) {
  const auto data = MakeTwoClusters(10, 8);
  graph::BipartiteGraph graph;
  for (const auto& record : data.records) graph.AddRecord(record);
  BiSage model(FastConfig());
  ASSERT_TRUE(model.Train(graph).ok());
  ASSERT_EQ(graph.type(0), graph::NodeType::kRecord);

  BiSage restored(FastConfig());
  EXPECT_TRUE(restored.RestoreTrained(model.ExportTrained(), graph).ok());

  BiSage::TrainedState h_state = model.ExportTrained();
  h_state.h_table.At(0, 3) = 1e-3;
  EXPECT_EQ(restored.RestoreTrained(std::move(h_state), graph).code(),
            StatusCode::kInvalidArgument);

  BiSage::TrainedState l_state = model.ExportTrained();
  l_state.l_table.At(0, 0) = std::nan("");
  EXPECT_EQ(restored.RestoreTrained(std::move(l_state), graph).code(),
            StatusCode::kInvalidArgument);

  // A row past the graph would become a future record's row.
  BiSage::TrainedState long_state = model.ExportTrained();
  long_state.h_table.AppendRow(math::Vec(FastConfig().dimension, 0.0));
  long_state.l_table.AppendRow(math::Vec(FastConfig().dimension, 0.0));
  EXPECT_EQ(restored.RestoreTrained(std::move(long_state), graph).code(),
            StatusCode::kInvalidArgument);

  // The snapshot loaders restore through the embedder.
  graph::BipartiteGraph loaded;
  for (const auto& record : data.records) loaded.AddRecord(record);
  BiSageEmbedder embedder(FastConfig());
  BiSage::TrainedState bad = model.ExportTrained();
  bad.h_table.At(0, 0) = 0.25;
  EXPECT_EQ(
      embedder.RestoreFitted(std::move(loaded), {0}, std::move(bad)).code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gem::embed
