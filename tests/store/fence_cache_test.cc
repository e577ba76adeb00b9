// FenceCache behavior: LRU order, hit/miss accounting, pinning across
// eviction, live reload through Install, and the concurrency
// invariants the TSan CI job race-checks — concurrent cold loads of
// one fence collapse to a single disk read, eviction never invalidates
// a pinned holder mid-request, an install storm under live traffic
// converges without serving a stale generation, and a cold load that
// straddles a re-registration never serves the old file.
#include "store/fence_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "core/gem.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

uint64_t ReloadFailures() {
  return obs::MetricsRegistry::Get()
      .GetCounter("gem_store_install_failures_total", {{"phase", "reload"}})
      .value();
}

/// Trains one small model per process and snapshots it to two files;
/// cache tests register many fence ids against them (the second file
/// is the repoint target). No test serves into a cached fence's own
/// overlay, so no flush ever rewrites the shared files.
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

TEST_F(FenceCacheTest, EmptyIdOrPathIsInvalid) {
  FenceCache cache;
  for (const auto& [id, path] : {std::pair<std::string, std::string>{
                                     "", *v2_path_},
                                 {"home", ""}}) {
    EXPECT_EQ(cache.Register(id, path).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(cache.Install(id, path).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(cache.registered(), 0u);
}

TEST_F(FenceCacheTest, RegisteredIdsAreSorted) {
  FenceCache cache;
  for (const char* id : {"zeta", "alpha", "mid"}) {
    ASSERT_TRUE(cache.Register(id, *v2_path_).ok());
  }
  EXPECT_EQ(cache.RegisteredIds(),
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST_F(FenceCacheTest, InstallReloadsUnderNewGeneration) {
  FenceCache cache;
  ASSERT_TRUE(cache.Register("home", *v2_path_).ok());
  auto first = cache.Acquire("home");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value()->generation, 1u);

  // A file that fails to load changes nothing: generation 1 still
  // serves, and the failure is counted as a reload.
  const uint64_t failures_before = ReloadFailures();
  EXPECT_EQ(
      cache.Install("home", TempPath("no_such_snapshot.gem")).status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(ReloadFailures() - failures_before, 1u);
  EXPECT_EQ(cache.Acquire("home").value().get(), first.value().get());

  // A good file is mapped and resident at once, under a new generation;
  // the old holder keeps its model.
  const uint64_t misses_before = Misses();
  auto installed = cache.Install("home", *v2_path_);
  ASSERT_TRUE(installed.ok());
  EXPECT_EQ(installed.value(), 2u);
  EXPECT_EQ(cache.resident(), 1u);
  auto second = cache.Acquire("home");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Misses() - misses_before, 0u);
  EXPECT_NE(second.value().get(), first.value().get());
  EXPECT_EQ(second.value()->generation, 2u);
  EXPECT_EQ(first.value()->generation, 1u);
}

TEST_F(FenceCacheTest, RegisterSamePathIsNoOpInstallRepoints) {
  FenceCache cache;
  ASSERT_TRUE(cache.Register("home", *v2_path_).ok());
  auto first = cache.Acquire("home");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.resident(), 1u);

  // Re-registering the SAME path is a no-op — the resident model still
  // matches the file.
  ASSERT_TRUE(cache.Register("home", *v2_path_).ok());
  EXPECT_EQ(cache.resident(), 1u);

  // Register never repoints: another file is refused and the resident
  // model stays.
  EXPECT_EQ(cache.Register("home", *other_path_).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cache.Acquire("home").value().get(), first.value().get());

  // Install repoints: the other file serves under generation 2, and a
  // Register of it is now the no-op.
  auto repointed = cache.Install("home", *other_path_);
  ASSERT_TRUE(repointed.ok());
  EXPECT_EQ(repointed.value(), 2u);
  EXPECT_EQ(cache.resident(), 1u);
  EXPECT_TRUE(cache.Register("home", *other_path_).ok());
  EXPECT_EQ(cache.Register("home", *v2_path_).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cache.Acquire("home").value()->generation, 2u);
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

// A cold load that is on disk while its id is deregistered and
// registered again, to a missing file, belongs to the old registration:
// it must not make the old file resident under the new one. The loader
// is parked, by event, in the log sink that receives its
// store.cold_load span line: after the disk read, before it relocks.
TEST_F(FenceCacheTest, ColdLoadAcrossReregistrationServesTheNewFile) {
  FenceCache cache;
  ASSERT_TRUE(cache.Register("f", *v2_path_).ok());

  std::mutex mutex;
  std::condition_variable changed;
  bool parked = false;
  bool released = false;
  const int shift_before = obs::GetSpanSamplingShift();
  const LogLevel level_before = GetLogLevel();
  obs::SetSpanSamplingShift(0);  // every span entry logs its line
  SetLogLevel(LogLevel::kDebug);
  SetLogSink([&](LogLevel, const std::string& line) {
    if (line.find("span store.cold_load") == std::string::npos) return;
    std::unique_lock lock(mutex);
    if (parked) return;  // only the first cold load parks
    parked = true;
    changed.notify_all();
    changed.wait(lock, [&] { return released; });
  });

  StatusCode loader_code = StatusCode::kOk;
  std::thread loader([&] { loader_code = cache.Acquire("f").status().code(); });
  {
    std::unique_lock lock(mutex);
    changed.wait(lock, [&] { return parked; });
  }
  // Neither call logs, so neither waits on the parked sink.
  const Status deregistered = cache.Deregister("f");
  const Status registered =
      cache.Register("f", TempPath("no_such_snapshot.gem"));
  {
    std::lock_guard lock(mutex);
    released = true;
  }
  changed.notify_all();
  loader.join();
  SetLogSink(nullptr);
  SetLogLevel(level_before);
  obs::SetSpanSamplingShift(shift_before);

  ASSERT_TRUE(deregistered.ok());
  ASSERT_TRUE(registered.ok());
  EXPECT_EQ(loader_code, StatusCode::kNotFound);
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_EQ(cache.Acquire("f").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.resident(), 0u);
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

TEST_F(FenceCacheTest, InstallStormConvergesToFreshGeneration) {
  // A pin-vs-reload race: readers Acquire and infer while the main
  // thread storms Install. Readers must always get a usable model, and
  // the post-storm Acquire must observe a generation at least as fresh
  // as every install that completed before it.
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
  uint64_t last_installed = 0;
  for (int i = 0; i < 16; ++i) {
    auto installed = cache.Install("home", *v2_path_);
    // EXPECT, not ASSERT: the readers must be stopped either way.
    EXPECT_TRUE(installed.ok()) << installed.status().ToString();
    if (!installed.ok()) continue;
    EXPECT_GT(installed.value(), last_installed);
    last_installed = installed.value();
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  // Generations stayed monotonic through the storm: one more install
  // advances by exactly one — no generation was double-issued or lost
  // to a discarded racing load.
  auto settled = cache.Acquire("home");
  ASSERT_TRUE(settled.ok());
  const uint64_t settled_generation = settled.value()->generation;
  EXPECT_GE(settled_generation, last_installed);
  auto fresh = cache.Install("home", *v2_path_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value(), settled_generation + 1);
  EXPECT_EQ(cache.Acquire("home").value()->generation,
            settled_generation + 1);
}

}  // namespace
}  // namespace gem::store
