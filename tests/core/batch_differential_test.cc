// Differential testing of the batch inference paths: randomized (but
// seeded) workloads through Gem::InferBatch and serve::Engine::InferBatch
// must match a sequential Infer loop field-for-field — score, decision,
// AND model_updated. Gem::InferBatch runs at 1, 2, and GEM_THREADS
// threads: identically-configured models train bit-identically at
// every thread count, so each leg trains a fresh model
// and compares against one precomputed sequential reference. The engine
// serves a mapped snapshot, whose pool has one thread (the thread count
// is not persisted). Part of the TSan CI matrix via the `parallel_`
// prefix.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gem.h"
#include "rf/dataset.h"
#include "serve/engine.h"
#include "serve/fence_registry.h"
#include "store/fence_cache.h"
#include "store/snapshot_v2.h"

namespace gem::core {
namespace {

int ManyThreads() {
  if (const char* env = std::getenv("GEM_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  return 8;
}

rf::Dataset TwoClusterDataset(uint64_t seed) {
  // Home presets alternate inside/outside test segments — the workload
  // mixes the two clusters plus the unknown-MAC tail below.
  rf::DatasetOptions options;
  options.train_duration_s = 180.0;
  options.test_segments = 2;
  options.test_segment_duration_s = 60.0;
  options.seed = seed;
  return rf::GenerateScenarioDataset(rf::HomePreset(2), options);
}

GemConfig TestConfig(int num_threads) {
  GemConfig config;
  config.bisage.dimension = 16;
  config.bisage.epochs = 2;
  config.bisage.seed = 5;
  config.bisage.num_threads = num_threads;
  return config;
}

/// Seeded workload: the test stream shuffled out of scan order, a
/// sprinkling of never-trained MACs spliced into existing records, and
/// one record of nothing but unknown APs. Order and mutations are a
/// pure function of `seed`, so every leg sees the identical stream.
std::vector<rf::ScanRecord> BuildWorkload(const rf::Dataset& data,
                                          uint64_t seed) {
  std::vector<rf::ScanRecord> workload(data.test.begin(), data.test.end());
  std::mt19937_64 rng(seed);
  std::shuffle(workload.begin(), workload.end(), rng);
  for (size_t i = 0; i < workload.size(); ++i) {
    // Rename ~15% of non-leading readings to MACs the model never saw;
    // the leading reading stays so the record keeps a trained anchor.
    for (size_t r = 1; r < workload[i].readings.size(); ++r) {
      if (rng() % 100 < 15) {
        workload[i].readings[r].mac =
            "un:kn:" + std::to_string(i) + ":" + std::to_string(r);
      }
    }
  }
  // And one all-unknown record: both paths must agree on the degenerate
  // case too, whatever the model decides for it.
  if (!workload.empty()) {
    rf::ScanRecord ghost = workload.back();
    for (size_t r = 0; r < ghost.readings.size(); ++r) {
      ghost.readings[r].mac = "gh:os:t0:" + std::to_string(r);
    }
    workload.push_back(std::move(ghost));
  }
  return workload;
}

/// The sequential ground truth: a fresh single-threaded model fed the
/// workload one record at a time.
std::vector<InferenceResult> SequentialReference(
    const rf::Dataset& data, const std::vector<rf::ScanRecord>& workload) {
  Gem gem(TestConfig(1));
  EXPECT_TRUE(gem.Train(data.train).ok());
  GemOverlay overlay;
  std::vector<InferenceResult> results;
  results.reserve(workload.size());
  for (const rf::ScanRecord& record : workload) {
    results.push_back(gem.Infer(record, overlay));
  }
  return results;
}

void ExpectFieldForField(const std::vector<InferenceResult>& actual,
                         const std::vector<InferenceResult>& expected,
                         const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].score, expected[i].score)
        << label << " record " << i;
    ASSERT_EQ(actual[i].decision, expected[i].decision)
        << label << " record " << i;
    ASSERT_EQ(actual[i].model_updated, expected[i].model_updated)
        << label << " record " << i;
  }
}

TEST(BatchDifferentialTest, GemInferBatchMatchesSequentialLoop) {
  for (const uint64_t seed : {3u, 17u}) {
    const rf::Dataset data = TwoClusterDataset(seed);
    const std::vector<rf::ScanRecord> workload = BuildWorkload(data, seed);
    const std::vector<InferenceResult> expected =
        SequentialReference(data, workload);

    for (const int threads : {1, 2, ManyThreads()}) {
      Gem batched(TestConfig(threads));
      ASSERT_TRUE(batched.Train(data.train).ok());
      GemOverlay overlay;
      ExpectFieldForField(batched.InferBatch(workload, overlay), expected,
                          "seed " + std::to_string(seed) + ", " +
                              std::to_string(threads) + " threads");
    }
  }
}

TEST(BatchDifferentialTest, EngineInferBatchMatchesSequentialLoop) {
  const uint64_t seed = 29;
  const rf::Dataset data = TwoClusterDataset(seed);
  const std::vector<rf::ScanRecord> workload = BuildWorkload(data, seed);
  const std::vector<InferenceResult> expected =
      SequentialReference(data, workload);

  Gem model(TestConfig(1));
  ASSERT_TRUE(model.Train(data.train).ok());
  const std::string path =
      std::string(::testing::TempDir()) + "/batch_differential_model.gem";
  ASSERT_TRUE(store::SaveSnapshotV2(path, model).ok());
  store::FenceCacheOptions cache_options;
  cache_options.flush_on_evict = false;
  auto cache = std::make_shared<store::FenceCache>(cache_options);
  ASSERT_TRUE(cache->Install("home", path).ok());
  serve::FenceRegistry registry;
  registry.AttachStore(cache);
  serve::Engine engine(&registry, serve::EngineOptions{/*num_threads=*/1});

  const serve::BatchServeResponse response =
      engine.InferBatch("home", workload);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ExpectFieldForField(response.results, expected, "engine");
  engine.Shutdown();
}

}  // namespace
}  // namespace gem::core
