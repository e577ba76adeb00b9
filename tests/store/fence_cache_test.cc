// FenceCache behavior: LRU order, hit/miss accounting, pinning across
// eviction, generation-aware invalidation, and the concurrency
// invariants the TSan CI job race-checks — concurrent cold loads of
// one fence collapse to a single disk read, eviction never invalidates
// a pinned holder mid-request, and an invalidation storm under live
// traffic converges without serving a stale generation.
#include "store/fence_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gem.h"
#include "obs/metrics.h"
#include "rf/dataset.h"
#include "serve/fence.h"
#include "store/snapshot_v2.h"

namespace gem::store {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

uint64_t Hits() {
  return obs::MetricsRegistry::Get()
      .GetCounter("gem_store_cache_hits_total")
      .value();
}

uint64_t Misses() {
  return obs::MetricsRegistry::Get()
      .GetCounter("gem_store_cache_misses_total")
      .value();
}

uint64_t Evictions() {
  return obs::MetricsRegistry::Get()
      .GetCounter("gem_store_cache_evictions_total")
      .value();
}

/// Trains one small model per process and snapshots it to two files;
/// cache tests register many fence ids against them (the second file
/// is the repoint target).
class FenceCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rf::DatasetOptions options;
    options.train_duration_s = 180.0;
    options.test_segments = 1;
    options.test_segment_duration_s = 30.0;
    options.seed = 77;
    dataset_ = new rf::Dataset(
        rf::GenerateScenarioDataset(rf::HomePreset(2), options));
    core::GemConfig config;
    config.bisage.dimension = 8;
    config.bisage.epochs = 1;
    core::Gem gem(config);
    ASSERT_TRUE(gem.Train(dataset_->train).ok());
    v2_path_ = new std::string(TempPath("fence_cache_model_v2.gem"));
    other_path_ = new std::string(TempPath("fence_cache_model_other.gem"));
    ASSERT_TRUE(SaveSnapshotV2(*v2_path_, gem).ok());
    ASSERT_TRUE(SaveSnapshotV2(*other_path_, gem).ok());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete v2_path_;
    delete other_path_;
    dataset_ = nullptr;
    v2_path_ = nullptr;
    other_path_ = nullptr;
  }

  static rf::Dataset* dataset_;
  static std::string* v2_path_;
  static std::string* other_path_;
};

rf::Dataset* FenceCacheTest::dataset_ = nullptr;
std::string* FenceCacheTest::v2_path_ = nullptr;
std::string* FenceCacheTest::other_path_ = nullptr;

TEST_F(FenceCacheTest, OptionsValidate) {
  FenceCacheOptions options;
  options.capacity = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.capacity = 1;
  EXPECT_TRUE(options.Validate().ok());
}

TEST_F(FenceCacheTest, AcquireColdLoadsThenHits) {
  FenceCache cache;
  ASSERT_TRUE(cache.Register("home", *v2_path_).ok());
  EXPECT_EQ(cache.registered(), 1u);
  EXPECT_EQ(cache.resident(), 0u);

  const uint64_t hits_before = Hits();
  const uint64_t misses_before = Misses();
  auto first = cache.Acquire("home");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value()->generation, 1u);
  EXPECT_EQ(cache.resident(), 1u);
  EXPECT_GT(cache.resident_bytes(), 0u);
  EXPECT_EQ(Misses() - misses_before, 1u);

  auto second = cache.Acquire("home");
  ASSERT_TRUE(second.ok());
  // A warm Acquire pins the SAME resident model, no disk involved.
  EXPECT_EQ(second.value().get(), first.value().get());
  EXPECT_EQ(Hits() - hits_before, 1u);
  EXPECT_EQ(Misses() - misses_before, 1u);
}

TEST_F(FenceCacheTest, UnknownAndMissingAreNotFound) {
  FenceCache cache;
  EXPECT_EQ(cache.Acquire("nope").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(
      cache.Register("ghost", TempPath("no_such_snapshot.gem")).ok());
  EXPECT_EQ(cache.Acquire("ghost").status().code(), StatusCode::kNotFound);
}

TEST_F(FenceCacheTest, EvictionFollowsLruOrder) {
  FenceCacheOptions options;
  options.capacity = 2;
  FenceCache cache(options);
  for (const char* id : {"a", "b", "c"}) {
    ASSERT_TRUE(cache.Register(id, *v2_path_).ok());
  }
  ASSERT_TRUE(cache.Acquire("a").ok());
  ASSERT_TRUE(cache.Acquire("b").ok());
  // Touch "a" so "b" is now least-recently-used.
  ASSERT_TRUE(cache.Acquire("a").ok());

  const uint64_t evictions_before = Evictions();
  ASSERT_TRUE(cache.Acquire("c").ok());
  EXPECT_EQ(cache.resident(), 2u);
  EXPECT_EQ(Evictions() - evictions_before, 1u);

  // "a" survived (hit); "b" was the victim (cold again).
  const uint64_t hits_before = Hits();
  const uint64_t misses_before = Misses();
  ASSERT_TRUE(cache.Acquire("a").ok());
  EXPECT_EQ(Hits() - hits_before, 1u);
  ASSERT_TRUE(cache.Acquire("b").ok());
  EXPECT_EQ(Misses() - misses_before, 1u);
}

TEST_F(FenceCacheTest, PinnedHolderSurvivesEviction) {
  FenceCacheOptions options;
  options.capacity = 1;
  FenceCache cache(options);
  ASSERT_TRUE(cache.Register("pinned", *v2_path_).ok());
  ASSERT_TRUE(cache.Register("other", *v2_path_).ok());

  auto pinned = cache.Acquire("pinned");
  ASSERT_TRUE(pinned.ok());
  std::shared_ptr<serve::Fence> held = pinned.value();

  // Loading "other" evicts "pinned" from the cache...
  ASSERT_TRUE(cache.Acquire("other").ok());
  EXPECT_EQ(cache.resident(), 1u);

  // ...but the pinned holder's model is untouched and fully usable —
  // an in-flight request never observes its fence disappearing. (A
  // local overlay, so the test leaves the shared snapshot unflushed.)
  core::GemOverlay overlay;
  const core::InferenceResult result =
      held->gem.Infer(dataset_->test.front(), overlay);
  EXPECT_TRUE(result.score == result.score);  // produced a real score
  EXPECT_EQ(held->generation, 1u);

  // Re-acquiring cold-loads a FRESH generation; the monotonic counter
  // survived the eviction.
  auto again = cache.Acquire("pinned");
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again.value().get(), held.get());
  EXPECT_EQ(again.value()->generation, 2u);
}

TEST_F(FenceCacheTest, InvalidateForcesReloadUnderNewGeneration) {
  FenceCache cache;
  ASSERT_TRUE(cache.Register("home", *v2_path_).ok());
  auto first = cache.Acquire("home");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value()->generation, 1u);

  EXPECT_EQ(cache.Invalidate("nope").code(), StatusCode::kNotFound);
  ASSERT_TRUE(cache.Invalidate("home").ok());
  EXPECT_EQ(cache.resident(), 0u);

  auto second = cache.Acquire("home");
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().get(), first.value().get());
  EXPECT_EQ(second.value()->generation, 2u);
}

TEST_F(FenceCacheTest, RegisterRepointInvalidatesSamePathDoesNot) {
  FenceCache cache;
  ASSERT_TRUE(cache.Register("home", *v2_path_).ok());
  ASSERT_TRUE(cache.Acquire("home").ok());
  EXPECT_EQ(cache.resident(), 1u);

  // Re-registering the SAME path is a no-op — the resident model still
  // matches the file.
  ASSERT_TRUE(cache.Register("home", *v2_path_).ok());
  EXPECT_EQ(cache.resident(), 1u);

  // Repointing to a different file drops the stale resident.
  ASSERT_TRUE(cache.Register("home", *other_path_).ok());
  EXPECT_EQ(cache.resident(), 0u);
  auto reloaded = cache.Acquire("home");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value()->generation, 2u);
}

TEST_F(FenceCacheTest, DeregisterDropsRegistrationAndResident) {
  FenceCache cache;
  ASSERT_TRUE(cache.Register("home", *v2_path_).ok());
  auto held = cache.Acquire("home");
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(cache.Deregister("home").ok());
  EXPECT_EQ(cache.registered(), 0u);
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_EQ(cache.Acquire("home").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.Deregister("home").code(), StatusCode::kNotFound);
  // The pinned holder is still serviceable after deregistration.
  EXPECT_EQ(held.value()->id, "home");
}

TEST_F(FenceCacheTest, DestructionReturnsGenerationGaugeToBaseline) {
  const double generations_before =
      serve::Fence::GenerationsLiveGauge().value();
  {
    FenceCache cache;
    ASSERT_TRUE(cache.Register("home", *v2_path_).ok());
    ASSERT_TRUE(cache.Acquire("home").ok());
    EXPECT_EQ(serve::Fence::GenerationsLiveGauge().value(),
              generations_before + 1.0);
  }
  EXPECT_EQ(serve::Fence::GenerationsLiveGauge().value(),
            generations_before);
}

TEST_F(FenceCacheTest, ConcurrentColdLoadsCollapseToOne) {
  FenceCache cache;
  ASSERT_TRUE(cache.Register("home", *v2_path_).ok());

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<serve::Fence>> acquired(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto fence = cache.Acquire("home");
      ASSERT_TRUE(fence.ok()) << fence.status().ToString();
      acquired[t] = fence.value();
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Single-flight: one disk load, every thread pinned the SAME model
  // under the SAME generation. (The waiters count as misses — they
  // paid the disk latency — so counters are not asserted here.)
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(acquired[t].get(), acquired[0].get());
  }
  EXPECT_EQ(acquired[0]->generation, 1u);
  EXPECT_EQ(cache.resident(), 1u);
}

TEST_F(FenceCacheTest, EvictionUnderTrafficKeepsServing) {
  // Four fences churning through a two-slot cache from four threads:
  // every Acquire must succeed (eviction only ever drops the cache's
  // OWN reference), and the cache ends within capacity.
  FenceCacheOptions options;
  options.capacity = 2;
  FenceCache cache(options);
  const std::vector<std::string> ids = {"a", "b", "c", "d"};
  for (const std::string& id : ids) {
    ASSERT_TRUE(cache.Register(id, *v2_path_).ok());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 12; ++i) {
        auto fence = cache.Acquire(ids[(t + i) % ids.size()]);
        if (!fence.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Hold the pin across real model work, so evictions race
        // against an in-use fence. The overlay is local: serving into
        // the fence's own would make evictions rewrite the fixture.
        core::GemOverlay overlay;
        std::lock_guard lock(fence.value()->mutex);
        (void)fence.value()->gem.Infer(
            dataset_->test[i % dataset_->test.size()], overlay);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.resident(), 2u);
}

TEST_F(FenceCacheTest, InvalidationStormConvergesToFreshGeneration) {
  // A pin-vs-invalidate race: readers Acquire and infer while the main
  // thread storms Invalidate. Readers must always get a usable model,
  // and the post-storm Acquire must observe a generation at least as
  // fresh as every invalidation that completed before it.
  FenceCache cache;
  ASSERT_TRUE(cache.Register("home", *v2_path_).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto fence = cache.Acquire("home");
        if (!fence.ok()) {
          failures.fetch_add(1);
          continue;
        }
        core::GemOverlay overlay;
        std::lock_guard lock(fence.value()->mutex);
        (void)fence.value()->gem.Infer(dataset_->test.front(), overlay);
      }
    });
  }
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(cache.Invalidate("home").ok());
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  // Generations stayed monotonic through the storm: one more
  // invalidate + reload advances by exactly one — no generation was
  // double-issued or lost to a discarded racing load.
  auto settled = cache.Acquire("home");
  ASSERT_TRUE(settled.ok());
  const uint64_t settled_generation = settled.value()->generation;
  ASSERT_TRUE(cache.Invalidate("home").ok());
  auto fresh = cache.Acquire("home");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value()->generation, settled_generation + 1);
}

}  // namespace
}  // namespace gem::store
