#include "serve/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/gem.h"
#include "core/overlay.h"
#include "rf/dataset.h"
#include "serve/fence_registry.h"
#include "store/fence_cache.h"
#include "store/snapshot_v2.h"

namespace gem::serve {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

rf::Dataset SmallDataset(int user = 2, uint64_t seed = 77) {
  rf::DatasetOptions options;
  options.train_duration_s = 180.0;
  options.test_segments = 2;
  options.test_segment_duration_s = 60.0;
  options.seed = seed;
  return rf::GenerateScenarioDataset(rf::HomePreset(user), options);
}

core::GemConfig FastConfig() {
  core::GemConfig config;
  config.bisage.dimension = 8;
  config.bisage.epochs = 1;
  return config;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// A cache that never folds overlays back into their files: most tests
/// serve the shared fixture snapshot, which must stay as trained.
std::shared_ptr<store::FenceCache> NoFlushCache() {
  store::FenceCacheOptions options;
  options.flush_on_evict = false;
  return std::make_shared<store::FenceCache>(options);
}

ServeResponse ServeOne(Engine& engine, const std::string& fence_id,
                       const rf::ScanRecord& record) {
  ServeRequest request;
  request.fence_id = fence_id;
  request.record = record;
  return engine.InferBlocking(std::move(request));
}

/// Trains once per process and snapshots; tests serve fences mapped
/// from the snapshot and compare against copy loads of it (core::Gem
/// itself is move-only).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new rf::Dataset(SmallDataset());
    core::Gem gem(FastConfig());
    ASSERT_TRUE(gem.Train(dataset_->train).ok());
    snapshot_path_ = new std::string(TempPath("engine_test_model.gem"));
    ASSERT_TRUE(store::SaveSnapshotV2(*snapshot_path_, gem).ok());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete snapshot_path_;
    dataset_ = nullptr;
    snapshot_path_ = nullptr;
  }

  static core::Gem LoadModel() {
    auto gem = store::LoadSnapshotV2(*snapshot_path_);
    EXPECT_TRUE(gem.ok()) << gem.status().ToString();
    return std::move(gem).value();
  }

  /// Installs the fixture snapshot under each of `ids` in a fresh
  /// NoFlushCache and attaches it to `registry`.
  static std::shared_ptr<store::FenceCache> ServeFixture(
      FenceRegistry& registry, const std::vector<std::string>& ids) {
    std::shared_ptr<store::FenceCache> cache = NoFlushCache();
    for (const std::string& id : ids) {
      const auto generation = cache->Install(id, *snapshot_path_);
      EXPECT_TRUE(generation.ok()) << generation.status().ToString();
    }
    registry.AttachStore(cache);
    return cache;
  }

  static rf::Dataset* dataset_;
  static std::string* snapshot_path_;
};

rf::Dataset* ServeTest::dataset_ = nullptr;
std::string* ServeTest::snapshot_path_ = nullptr;

TEST_F(ServeTest, InstallResolveDeregister) {
  std::shared_ptr<store::FenceCache> cache = NoFlushCache();
  FenceRegistry registry;
  registry.AttachStore(cache);
  EXPECT_EQ(cache->registered(), 0u);
  EXPECT_EQ(registry.Resolve("home_a").status().code(),
            StatusCode::kNotFound);

  auto generation = cache->Install("home_a", *snapshot_path_);
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value(), 1u);
  EXPECT_EQ(cache->registered(), 1u);

  const auto resolved = registry.Resolve("home_a");
  ASSERT_TRUE(resolved.ok());
  const std::shared_ptr<Fence> fence = resolved.value();
  EXPECT_EQ(fence->id, "home_a");
  EXPECT_EQ(fence->generation, 1u);

  // Reinstall = live reload: generation bumps, old handle still valid.
  generation = cache->Install("home_a", *snapshot_path_);
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value(), 2u);
  EXPECT_EQ(fence->generation, 1u);  // the pre-reload handle
  EXPECT_EQ(registry.Resolve("home_a").value()->generation, 2u);

  EXPECT_TRUE(cache->Deregister("home_a").ok());
  EXPECT_EQ(registry.Resolve("home_a").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cache->Deregister("home_a").code(), StatusCode::kNotFound);
}

TEST_F(ServeTest, UnknownFenceIsNotFound) {
  FenceRegistry registry;
  Engine engine(&registry);
  ServeRequest request;
  request.fence_id = "nope";
  request.record = dataset_->test.front();
  const ServeResponse response = engine.InferBlocking(std::move(request));
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
}

// The served fence borrows its tensors from the snapshot mapping and
// answers bit-identically to a copy load of the same file, through a
// stream long enough that self-enhancement runs.
TEST_F(ServeTest, ServesMatchDirectInference) {
  FenceRegistry registry;
  ServeFixture(registry, {"home"});
  const core::Gem reference = LoadModel();
  core::GemOverlay reference_overlay;

  Engine engine(&registry, EngineOptions{/*num_threads=*/1});
  int absorbed = 0;
  for (const rf::ScanRecord& record : dataset_->test) {
    const ServeResponse response = ServeOne(engine, "home", record);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const core::InferenceResult expected =
        reference.Infer(record, reference_overlay);
    ASSERT_EQ(Bits(response.result.score), Bits(expected.score));
    ASSERT_EQ(response.result.decision, expected.decision);
    ASSERT_EQ(response.result.model_updated, expected.model_updated);
    EXPECT_EQ(response.fence_generation, 1u);
    absorbed += response.result.model_updated ? 1 : 0;
  }
  // Self-enhancement ran, so the overlays stayed in lockstep too.
  EXPECT_GT(absorbed, 0);
  engine.Shutdown();
}

// An installed fence gets the cache's OverlayLimits: whenever its
// overlay outgrows them, the next unpinned lookup folds it into the
// snapshot and reloads, and the reloaded generations continue the
// stream bit for bit.
TEST_F(ServeTest, InstalledFenceHonoursLimitsAndContinuesItsStream) {
  const std::string path = TempPath("engine_test_limits.gem");
  std::filesystem::copy_file(
      *snapshot_path_, path,
      std::filesystem::copy_options::overwrite_existing);
  store::FenceCacheOptions options;
  options.overlay_limits.max_new_nodes = 8;
  auto cache = std::make_shared<store::FenceCache>(options);
  ASSERT_TRUE(cache->Install("home", path).ok());
  FenceRegistry registry;
  registry.AttachStore(cache);
  Engine engine(&registry, EngineOptions{/*num_threads=*/1});

  const core::Gem reference = LoadModel();
  core::GemOverlay overlay;
  uint64_t generation = 0;
  for (size_t i = 0; i < dataset_->test.size(); ++i) {
    const ServeResponse response =
        ServeOne(engine, "home", dataset_->test[i]);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const core::InferenceResult expected =
        reference.Infer(dataset_->test[i], overlay);
    ASSERT_EQ(Bits(response.result.score), Bits(expected.score))
        << "record " << i;
    ASSERT_EQ(response.result.decision, expected.decision) << "record " << i;
    ASSERT_EQ(response.result.model_updated, expected.model_updated)
        << "record " << i;
    generation = response.fence_generation;
  }
  // The overlay was folded back at least once.
  EXPECT_GT(generation, 1u);
  engine.Shutdown();
}

// The acceptance scenario: >= 4 fences served concurrently, each
// fence's stream racing the self-enhancement updates it triggers, with
// a live reload happening mid-traffic. Run under TSan in CI.
TEST_F(ServeTest, ConcurrentFencesWithRacingUpdatesAndReload) {
  constexpr int kFences = 4;
  // Fence 0's request index that waits for the reload to return.
  constexpr size_t kReloadedFrom = 8;
  ASSERT_GT(dataset_->test.size(), kReloadedFrom);
  FenceRegistry registry;
  const auto cache =
      ServeFixture(registry, {"home_0", "home_1", "home_2", "home_3"});

  Engine engine(&registry, EngineOptions{/*num_threads=*/4});
  std::atomic<int> ok_count{0};
  // Fence 0 has been served once, so the reload races live traffic.
  std::latch fence0_served(1);
  // The reloading Install has returned.
  std::latch reloaded(1);
  std::vector<std::thread> clients;
  clients.reserve(kFences);
  for (int f = 0; f < kFences; ++f) {
    clients.emplace_back([&, f] {
      const std::string fence_id = "home_" + std::to_string(f);
      for (size_t i = 0; i < dataset_->test.size(); ++i) {
        if (f == 0 && i == kReloadedFrom) reloaded.wait();
        ServeRequest request;
        request.fence_id = fence_id;
        request.record = dataset_->test[i];
        ServeResponse response = engine.InferBlocking(request);
        while (response.status.code() == StatusCode::kUnavailable) {
          std::this_thread::yield();
          response = engine.InferBlocking(request);
        }
        if (f == 0 && i == 0) fence0_served.count_down();
        ASSERT_TRUE(response.status.ok()) << response.status.ToString();
        ok_count.fetch_add(1);
        if (f == 0 && i >= kReloadedFrom) {
          EXPECT_EQ(response.fence_generation, 2u) << "request " << i;
        }
      }
    });
  }

  // Live reload fence 0 while the clients are hammering it.
  fence0_served.wait();
  const auto generation = cache->Install("home_0", *snapshot_path_);
  reloaded.count_down();

  for (std::thread& client : clients) client.join();
  engine.Shutdown();
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value(), 2u);
  EXPECT_EQ(ok_count.load(),
            kFences * static_cast<int>(dataset_->test.size()));
}

// A live reload replaces the file (SaveSnapshotV2 writes a temp file
// and renames it over the old name) and maps the new one. A request
// that resolved generation 1 before the reload, and that a latch holds
// until the reload has returned, still finishes correctly off its own
// mapping of the replaced file; new requests see generation 2.
TEST_F(ServeTest, ReloadKeepsPinnedGenerationServingOffItsMapping) {
  const rf::Dataset other = SmallDataset(0, 11);
  core::Gem model_a = LoadModel();
  core::Gem model_b(FastConfig());
  ASSERT_TRUE(model_b.Train(other.train).ok());
  const std::string path = TempPath("engine_test_reload.gem");
  ASSERT_TRUE(store::SaveSnapshotV2(path, model_a).ok());

  std::shared_ptr<store::FenceCache> cache = NoFlushCache();
  ASSERT_TRUE(cache->Install("home", path).ok());
  FenceRegistry registry;
  registry.AttachStore(cache);

  std::latch pinned(1);
  std::latch reloaded(1);
  std::vector<core::InferenceResult> served;
  std::thread request([&] {
    // What Engine::Process does: resolve (pin), then serve under the
    // fence mutex. The latch holds it between the two.
    StatusOr<std::shared_ptr<Fence>> fence = registry.Resolve("home");
    pinned.count_down();
    reloaded.wait();
    ASSERT_TRUE(fence.ok());
    EXPECT_EQ((*fence)->generation, 1u);
    std::lock_guard lock((*fence)->mutex);
    for (const rf::ScanRecord& record : dataset_->test) {
      served.push_back((*fence)->gem.Infer(record, (*fence)->overlay));
    }
  });

  pinned.wait();
  // EXPECT, not ASSERT: the held request must be released either way.
  EXPECT_TRUE(store::SaveSnapshotV2(path, model_b).ok());
  const auto generation = cache->Install("home", path);
  reloaded.count_down();
  request.join();
  ASSERT_TRUE(generation.ok()) << generation.status().ToString();
  EXPECT_EQ(generation.value(), 2u);

  // The held request answered as model A, record for record.
  core::GemOverlay overlay_a;
  ASSERT_EQ(served.size(), dataset_->test.size());
  for (size_t i = 0; i < served.size(); ++i) {
    const core::InferenceResult expected =
        model_a.Infer(dataset_->test[i], overlay_a);
    ASSERT_EQ(Bits(served[i].score), Bits(expected.score)) << "record " << i;
    ASSERT_EQ(served[i].decision, expected.decision) << "record " << i;
  }

  // New traffic resolves generation 2 and answers as model B.
  Engine engine(&registry, EngineOptions{/*num_threads=*/1});
  core::GemOverlay overlay_b;
  for (size_t i = 0; i < 10 && i < other.test.size(); ++i) {
    const ServeResponse response = ServeOne(engine, "home", other.test[i]);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.fence_generation, 2u);
    EXPECT_EQ(Bits(response.result.score),
              Bits(model_b.Infer(other.test[i], overlay_b).score))
        << "record " << i;
  }
  engine.Shutdown();
}

TEST_F(ServeTest, BackpressureRejectsWhenQueueFull) {
  FenceRegistry registry;
  const auto cache = ServeFixture(registry, {"home"});

  EngineOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 2;
  Engine engine(&registry, options);

  // Stall the single worker by holding the fence's model mutex, then
  // saturate: 1 in-flight + 2 queued, everything after is shed.
  const std::shared_ptr<Fence> fence = cache->Acquire("home").value();
  std::atomic<int> completed{0};
  std::vector<Status> verdicts;
  {
    std::unique_lock stall(fence->mutex);
    // Wait until the worker has dequeued the first job (queue drains to
    // 0) so the subsequent submits deterministically fill the queue.
    ServeRequest first;
    first.fence_id = "home";
    first.record = dataset_->test.front();
    ASSERT_TRUE(engine
                    .Submit(first,
                            [&](ServeResponse) { completed.fetch_add(1); })
                    .ok());
    while (engine.queue_depth() != 0) std::this_thread::yield();

    for (int i = 0; i < 6; ++i) {
      ServeRequest request;
      request.fence_id = "home";
      request.record = dataset_->test.front();
      verdicts.push_back(engine.Submit(
          request, [&](ServeResponse) { completed.fetch_add(1); }));
    }
    int rejected = 0;
    for (const Status& verdict : verdicts) {
      if (verdict.code() == StatusCode::kUnavailable) ++rejected;
    }
    EXPECT_EQ(rejected, 4);  // queue holds 2, the rest bounce
  }
  engine.Shutdown();  // drains the 3 admitted jobs
  EXPECT_EQ(completed.load(), 3);
}

TEST_F(ServeTest, SubmitAfterShutdownFailsWithoutCallback) {
  FenceRegistry registry;
  ServeFixture(registry, {"home"});
  Engine engine(&registry);
  engine.Shutdown();
  engine.Shutdown();  // idempotent

  ServeRequest request;
  request.fence_id = "home";
  request.record = dataset_->test.front();
  bool callback_ran = false;
  const Status status = engine.Submit(
      std::move(request), [&](ServeResponse) { callback_ran = true; });
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(callback_ran);
}

TEST_F(ServeTest, DeregisterDuringTrafficFinishesInFlight) {
  constexpr int kClients = 2;
  constexpr int kRequests = 50;
  // Request index each client holds until Deregister has returned.
  constexpr int kUnloadedFrom = 10;
  FenceRegistry registry;
  const auto cache = ServeFixture(registry, {"home"});
  Engine engine(&registry, EngineOptions{/*num_threads=*/2});

  std::atomic<int> ok_or_notfound{0};
  // Every client has been served once, so Deregister lands while both
  // still have requests pending.
  std::latch all_served(kClients);
  std::latch unloaded(1);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRequests; ++i) {
        if (i == kUnloadedFrom) unloaded.wait();
        ServeRequest request;
        request.fence_id = "home";
        request.record = dataset_->test[i % dataset_->test.size()];
        ServeResponse response = engine.InferBlocking(request);
        while (response.status.code() == StatusCode::kUnavailable) {
          std::this_thread::yield();
          response = engine.InferBlocking(request);
        }
        if (i == 0) all_served.count_down();
        // Every request either serves against the model it resolved or
        // cleanly reports the fence as gone — nothing crashes or hangs.
        ASSERT_TRUE(response.status.ok() ||
                    response.status.code() == StatusCode::kNotFound);
        if (i >= kUnloadedFrom) {
          EXPECT_EQ(response.status.code(), StatusCode::kNotFound)
              << "request " << i;
        }
        ok_or_notfound.fetch_add(1);
      }
    });
  }
  all_served.wait();
  const Status unload = cache->Deregister("home");
  unloaded.count_down();
  for (std::thread& client : clients) client.join();
  engine.Shutdown();
  EXPECT_TRUE(unload.ok());
  EXPECT_EQ(ok_or_notfound.load(), kClients * kRequests);
}

TEST_F(ServeTest, InferBatchMatchesSequentialServes) {
  FenceRegistry registry;
  ServeFixture(registry, {"batch", "serial"});
  Engine engine(&registry, EngineOptions{2, 16});

  const std::vector<rf::ScanRecord> records(dataset_->test.begin(),
                                            dataset_->test.end());
  const BatchServeResponse batch = engine.InferBatch("batch", records);
  ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
  ASSERT_EQ(batch.results.size(), records.size());
  EXPECT_EQ(batch.fence_generation, 1u);

  // One-at-a-time serving against an identically seeded fence must see
  // the same scores: the batch path is an optimization, not a
  // semantics change.
  for (size_t i = 0; i < records.size(); ++i) {
    ServeRequest request;
    request.fence_id = "serial";
    request.record = records[i];
    const ServeResponse one = engine.InferBlocking(std::move(request));
    ASSERT_TRUE(one.status.ok());
    EXPECT_EQ(batch.results[i].score, one.result.score) << "record " << i;
    EXPECT_EQ(batch.results[i].decision, one.result.decision);
  }
  engine.Shutdown();
}

TEST_F(ServeTest, InferBatchReportsMissingFenceAndShutdown) {
  FenceRegistry registry;
  Engine engine(&registry, EngineOptions{1, 4});
  const std::vector<rf::ScanRecord> records(2);

  const BatchServeResponse missing = engine.InferBatch("ghost", records);
  EXPECT_EQ(missing.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(missing.results.empty());

  engine.Shutdown();
  const BatchServeResponse down = engine.InferBatch("ghost", records);
  EXPECT_EQ(down.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeTest, ConcurrentBatchesAgainstOneFenceStaySerialized) {
  FenceRegistry registry;
  ServeFixture(registry, {"home"});
  Engine engine(&registry, EngineOptions{4, 64});

  const std::vector<rf::ScanRecord> records(dataset_->test.begin(),
                                            dataset_->test.begin() + 16);
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      const BatchServeResponse response = engine.InferBatch("home", records);
      if (response.status.ok() && response.results.size() == records.size()) {
        ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(ok_count.load(), 4);
  engine.Shutdown();
}

}  // namespace
}  // namespace gem::serve
