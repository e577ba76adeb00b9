// Training bit-identity across thread counts, and batched inference
// equivalence with the sequential path. These tests are part of the
// TSan CI matrix (the `parallel_` prefix), so they double as
// data-race coverage for parallel Train / EmbedNewBatch / InferBatch
// and for concurrent embeds over one read-only model.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/gem.h"
#include "embed/bisage.h"
#include "graph/bipartite_graph.h"
#include "math/vec.h"
#include "rf/dataset.h"
#include "store/snapshot_v2.h"

namespace gem::core {
namespace {

// Thread count exercised by the "many threads" leg; CI overrides via
// GEM_THREADS to match the runner's core count.
int ManyThreads() {
  if (const char* env = std::getenv("GEM_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  return 8;
}

rf::Dataset SmallDataset(uint64_t seed = 77) {
  rf::DatasetOptions options;
  options.train_duration_s = 240.0;
  options.test_segments = 4;
  options.test_segment_duration_s = 60.0;
  options.seed = seed;
  return rf::GenerateScenarioDataset(rf::HomePreset(2), options);
}

embed::BiSageConfig FastBiSage(int num_threads) {
  embed::BiSageConfig config;
  config.dimension = 16;
  config.epochs = 2;
  config.seed = 5;
  config.num_threads = num_threads;
  return config;
}

GemConfig FastGem(int num_threads) {
  GemConfig config;
  config.bisage = FastBiSage(num_threads);
  return config;
}

std::vector<math::Vec> TrainEmbeddings(const rf::Dataset& data,
                                       int num_threads) {
  embed::BiSageEmbedder embedder(FastBiSage(num_threads));
  EXPECT_TRUE(embedder.Fit(data.train).ok());
  std::vector<math::Vec> embeddings;
  embeddings.reserve(embedder.num_train());
  for (int i = 0; i < embedder.num_train(); ++i) {
    embeddings.push_back(embedder.TrainEmbedding(i));
  }
  return embeddings;
}

void ExpectBitIdentical(const std::vector<math::Vec>& a,
                        const std::vector<math::Vec>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << label << " record " << i;
    for (size_t k = 0; k < a[i].size(); ++k) {
      ASSERT_EQ(a[i][k], b[i][k])
          << label << " record " << i << " component " << k;
    }
  }
}

TEST(ParallelDeterminismTest, TrainIsBitIdenticalAcrossThreadCounts) {
  const rf::Dataset data = SmallDataset();
  const std::vector<math::Vec> serial = TrainEmbeddings(data, 1);
  ASSERT_FALSE(serial.empty());
  ExpectBitIdentical(serial, TrainEmbeddings(data, 2), "2 threads");
  ExpectBitIdentical(serial, TrainEmbeddings(data, ManyThreads()),
                     "many threads");
}

// The whole trained model, as the v2 snapshot it saves to, is the same
// file at every thread count: the count reaches neither the learned
// bits nor the saved config.
TEST(ParallelDeterminismTest, SnapshotBytesAreIdenticalAcrossThreadCounts) {
  const rf::Dataset data = SmallDataset(13);
  std::string reference;
  for (const int threads : {1, 2, ManyThreads()}) {
    Gem gem(FastGem(threads));
    ASSERT_TRUE(gem.Train(data.train).ok());
    const std::string path = std::string(::testing::TempDir()) +
                             "/parallel_determinism_" +
                             std::to_string(threads) + ".gem";
    ASSERT_TRUE(store::SaveSnapshotV2(path, gem).ok());
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes.empty());
    if (threads == 1) {
      reference = bytes;
      continue;
    }
    ASSERT_EQ(bytes.size(), reference.size()) << threads << " threads";
    EXPECT_TRUE(bytes == reference)
        << "snapshot bytes differ at " << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, InferScoresAreBitIdenticalAcrossThreadCounts) {
  const rf::Dataset data = SmallDataset(31);
  std::vector<double> serial_scores;
  std::vector<Decision> serial_decisions;
  for (const int threads : {1, 2, ManyThreads()}) {
    Gem gem(FastGem(threads));
    ASSERT_TRUE(gem.Train(data.train).ok());
    GemOverlay overlay;
    std::vector<double> scores;
    std::vector<Decision> decisions;
    for (const rf::ScanRecord& record : data.test) {
      const InferenceResult result = gem.Infer(record, overlay);
      scores.push_back(result.score);
      decisions.push_back(result.decision);
    }
    if (threads == 1) {
      serial_scores = scores;
      serial_decisions = decisions;
      continue;
    }
    ASSERT_EQ(scores.size(), serial_scores.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      ASSERT_EQ(scores[i], serial_scores[i]) << threads << " threads, " << i;
      ASSERT_EQ(decisions[i], serial_decisions[i]);
    }
  }
}

TEST(ParallelDeterminismTest, EmbedNewBatchMatchesSequentialObserves) {
  const rf::Dataset data = SmallDataset(42);
  Gem sequential(FastGem(1));
  Gem batched(FastGem(ManyThreads()));
  ASSERT_TRUE(sequential.Train(data.train).ok());
  ASSERT_TRUE(batched.Train(data.train).ok());

  const size_t n = std::min<size_t>(data.test.size(), 24);
  const std::vector<rf::ScanRecord> batch(data.test.begin(),
                                          data.test.begin() + n);
  GemOverlay batch_overlay;
  const std::vector<StatusOr<math::Vec>> batch_out =
      batched.embedder().EmbedNewBatch(batch, batch_overlay.embedder);
  ASSERT_EQ(batch_out.size(), n);
  GemOverlay overlay;
  for (size_t i = 0; i < n; ++i) {
    const StatusOr<math::Vec> one = sequential.Observe(batch[i], overlay);
    ASSERT_EQ(batch_out[i].ok(), one.ok()) << "record " << i;
    if (!one.ok()) {
      EXPECT_EQ(batch_out[i].code(), one.code());
      continue;
    }
    ASSERT_EQ(batch_out[i]->size(), one->size());
    for (size_t k = 0; k < one->size(); ++k) {
      ASSERT_EQ((*batch_out[i])[k], (*one)[k]) << "record " << i;
    }
  }
}

TEST(ParallelDeterminismTest, InferBatchMatchesSequentialInferLoop) {
  const rf::Dataset data = SmallDataset(9);
  Gem sequential(FastGem(1));
  Gem batched(FastGem(ManyThreads()));
  ASSERT_TRUE(sequential.Train(data.train).ok());
  ASSERT_TRUE(batched.Train(data.train).ok());

  // The batch path must replay the sequential semantics exactly:
  // graph appends and detector self-enhancement happen in input order,
  // so scores, decisions, AND update flags line up bitwise.
  GemOverlay batch_overlay;
  const std::vector<InferenceResult> batch_out =
      batched.InferBatch(data.test, batch_overlay);
  ASSERT_EQ(batch_out.size(), data.test.size());
  GemOverlay overlay;
  for (size_t i = 0; i < data.test.size(); ++i) {
    const InferenceResult one = sequential.Infer(data.test[i], overlay);
    ASSERT_EQ(batch_out[i].score, one.score) << "record " << i;
    ASSERT_EQ(batch_out[i].decision, one.decision) << "record " << i;
    ASSERT_EQ(batch_out[i].model_updated, one.model_updated)
        << "record " << i;
  }
}

void ExpectSameMatrix(const math::Matrix& a, const math::Matrix& b,
                      const std::string& label) {
  ASSERT_EQ(a.rows(), b.rows()) << label;
  ASSERT_EQ(a.cols(), b.cols()) << label;
  EXPECT_EQ(std::memcmp(a.ptr(), b.ptr(),
                        static_cast<size_t>(a.rows()) * a.cols() *
                            sizeof(double)),
            0)
      << label;
}

// Embedding a node past the trained tables only reads the model: each
// call draws those nodes' rows into a delta of its own. The tables and
// the init stream stay as Train() left them, and threads embedding
// concurrently (no PrepareInference first) match a sequential run.
TEST(ParallelDeterminismTest, EmbeddingPastTheTablesLeavesModelUnchanged) {
  const rf::Dataset data = SmallDataset();
  graph::BipartiteGraph graph;
  for (const rf::ScanRecord& record : data.train) graph.AddRecord(record);
  embed::BiSage model(FastBiSage(1));
  ASSERT_TRUE(model.Train(graph).ok());
  const embed::BiSage::TrainedState before = model.ExportTrained();

  const graph::NodeId first = graph.num_nodes();
  for (const rf::ScanRecord& record : data.test) graph.AddRecord(record);
  const int appended = graph.num_nodes() - first;
  ASSERT_GT(appended, 0);

  std::vector<math::Vec> sequential;
  for (int i = 0; i < appended; ++i) {
    sequential.push_back(model.PrimaryEmbedding(graph, first + i));
  }
  std::vector<math::Vec> concurrent(appended);
  const int num_threads = ManyThreads();
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < appended; i += num_threads) {
        concurrent[i] = model.PrimaryEmbedding(graph, first + i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ExpectBitIdentical(sequential, concurrent, "concurrent embeds");

  const embed::BiSage::TrainedState after = model.ExportTrained();
  ExpectSameMatrix(before.h_table, after.h_table, "h_table");
  ExpectSameMatrix(before.l_table, after.l_table, "l_table");
  EXPECT_EQ(std::memcmp(before.init_rng.words, after.init_rng.words,
                        sizeof(before.init_rng.words)),
            0);
  EXPECT_EQ(before.init_rng.has_cached_normal,
            after.init_rng.has_cached_normal);
  EXPECT_EQ(before.init_rng.cached_normal, after.init_rng.cached_normal);
}

TEST(ParallelDeterminismTest, ParallelDatasetGenerationMatchesSequential) {
  std::vector<rf::ScenarioJob> jobs;
  for (int user = 0; user < 4; ++user) {
    rf::ScenarioJob job;
    job.scenario = rf::HomePreset(user);
    job.options.train_duration_s = 120.0;
    job.options.test_segments = 2;
    job.options.test_segment_duration_s = 45.0;
    job.options.seed = 100 + user;
    jobs.push_back(job);
  }
  const std::vector<rf::Dataset> parallel =
      rf::GenerateScenarioDatasets(jobs, ManyThreads());
  const std::vector<rf::Dataset> serial =
      rf::GenerateScenarioDatasets(jobs, 1);
  ASSERT_EQ(parallel.size(), jobs.size());
  ASSERT_EQ(serial.size(), jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    ASSERT_EQ(parallel[j].train.size(), serial[j].train.size());
    ASSERT_EQ(parallel[j].test.size(), serial[j].test.size());
    for (size_t i = 0; i < serial[j].train.size(); ++i) {
      const rf::ScanRecord& a = parallel[j].train[i];
      const rf::ScanRecord& b = serial[j].train[i];
      ASSERT_EQ(a.readings.size(), b.readings.size());
      for (size_t r = 0; r < b.readings.size(); ++r) {
        ASSERT_EQ(a.readings[r].mac, b.readings[r].mac);
        ASSERT_EQ(a.readings[r].rss_dbm, b.readings[r].rss_dbm);
      }
    }
  }
}

}  // namespace
}  // namespace gem::core
