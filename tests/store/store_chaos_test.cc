// Chaos layer over gem::store: seeded failpoint schedules drive the
// mmap/validate/evict paths and the tests assert the subsystem-level
// invariants — an injected map or validate failure surfaces as the
// configured Status (never a crash or a partial model), a failed
// atomic save leaves no file behind, a failed eviction leaves the
// cache transiently OVER capacity (never under-resident) and
// re-converges, and a probabilistic open-failure storm degrades to
// clean per-request errors. Only built with -DGEM_ENABLE_FAILPOINTS=ON.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/gem.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "rf/dataset.h"
#include "store/fence_cache.h"
#include "store/mapped_model.h"
#include "store/snapshot_v2.h"

namespace gem::store {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

uint64_t LoadRetries() {
  return obs::MetricsRegistry::Get()
      .GetCounter("gem_store_load_retries_total")
      .value();
}

RetryOptions FastRetry(int attempts) {
  RetryOptions retry;
  retry.max_attempts = attempts;
  retry.initial_backoff = std::chrono::milliseconds(1);
  return retry;
}

/// Trains once per process; every test starts and ends with a clean
/// failpoint registry so schedules cannot leak across tests.
class StoreChaosTest : public ::testing::Test {
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
    v2_path_ = new std::string(TempPath("store_chaos_model_v2.gem"));
    ASSERT_TRUE(SaveSnapshotV2(*v2_path_, gem).ok());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete v2_path_;
    dataset_ = nullptr;
    v2_path_ = nullptr;
  }

  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }

  static rf::Dataset* dataset_;
  static std::string* v2_path_;
};

rf::Dataset* StoreChaosTest::dataset_ = nullptr;
std::string* StoreChaosTest::v2_path_ = nullptr;

TEST_F(StoreChaosTest, TransientOpenFailureRetriesAndRecovers) {
  ASSERT_TRUE(fault::Configure("store.mmap.open=once/unavailable").ok());
  const uint64_t retries_before = LoadRetries();
  const auto loaded = OpenWithRetry(*v2_path_, FastRetry(3));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(LoadRetries() - retries_before, 1u);
}

TEST_F(StoreChaosTest, MapFailureSurfacesCleanlyThenClears) {
  ASSERT_TRUE(fault::Configure("store.mmap.map=always/internal").ok());
  const auto failed = LoadSnapshotV2(*v2_path_);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  fault::Reset();
  EXPECT_TRUE(LoadSnapshotV2(*v2_path_).ok());
}

TEST_F(StoreChaosTest, ValidateFailureIsNotRetriedAsDataLoss) {
  // data_loss is a definite verdict about the bytes — retrying the
  // same file cannot help, so the retry loop must pass it through on
  // the first attempt.
  ASSERT_TRUE(
      fault::Configure("store.snapshot.validate=always/data_loss").ok());
  const uint64_t retries_before = LoadRetries();
  const auto loaded = OpenWithRetry(*v2_path_, FastRetry(3));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(LoadRetries() - retries_before, 0u);
}

TEST_F(StoreChaosTest, FailedSaveLeavesNoFileBehind) {
  auto gem = LoadSnapshotV2(*v2_path_);
  ASSERT_TRUE(gem.ok());

  // TempDir persists across runs of this binary; the success saves at
  // the end of this test must not masquerade as leftovers next run.
  const std::string write_dst = TempPath("store_chaos_failed_write.gem");
  const std::string rename_dst = TempPath("store_chaos_failed_rename.gem");
  ::unlink(write_dst.c_str());
  ::unlink(rename_dst.c_str());

  ASSERT_TRUE(fault::Configure("store.snapshot.write=once/unavailable").ok());
  ASSERT_FALSE(SaveSnapshotV2(write_dst, gem.value()).ok());
  EXPECT_FALSE(FileExists(write_dst));

  ASSERT_TRUE(
      fault::Configure("store.snapshot.rename=once/unavailable").ok());
  ASSERT_FALSE(SaveSnapshotV2(rename_dst, gem.value()).ok());
  EXPECT_FALSE(FileExists(rename_dst));

  // Both failpoints were once-shots: the same saves now succeed.
  EXPECT_TRUE(SaveSnapshotV2(write_dst, gem.value()).ok());
  EXPECT_TRUE(SaveSnapshotV2(rename_dst, gem.value()).ok());
}

TEST_F(StoreChaosTest, CacheSurfacesInjectedLoadFailureAndRecovers) {
  FenceCacheOptions options;
  options.retry = FastRetry(1);
  FenceCache cache(options);
  ASSERT_TRUE(cache.Register("home", *v2_path_).ok());

  ASSERT_TRUE(fault::Configure("store.mmap.open=always/unavailable").ok());
  const auto failed = cache.Acquire("home");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(cache.resident(), 0u);

  // A failed cold load caches NOTHING — once the fault clears, the
  // next Acquire loads the real model at generation 1.
  fault::Reset();
  const auto recovered = cache.Acquire("home");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->generation, 1u);
  EXPECT_EQ(cache.resident(), 1u);
}

TEST_F(StoreChaosTest, FailedEvictionLeavesCacheOverCapacityNeverBroken) {
  FenceCacheOptions options;
  options.capacity = 1;
  FenceCache cache(options);
  for (const char* id : {"a", "b", "c"}) {
    ASSERT_TRUE(cache.Register(id, *v2_path_).ok());
  }

  ASSERT_TRUE(cache.Acquire("a").ok());
  ASSERT_TRUE(fault::Configure("store.cache.evict=always/internal").ok());
  // The insert succeeds and the eviction is skipped: transiently OVER
  // capacity is the designed failure mode (serving never loses a
  // resident model to a failed eviction).
  ASSERT_TRUE(cache.Acquire("b").ok());
  EXPECT_EQ(cache.resident(), 2u);
  EXPECT_GT(fault::TriggerCount("store.cache.evict"), 0u);

  // Both stayed warm — over-capacity is still a working cache.
  const uint64_t hits_before = obs::MetricsRegistry::Get()
                                   .GetCounter("gem_store_cache_hits_total")
                                   .value();
  ASSERT_TRUE(cache.Acquire("a").ok());
  ASSERT_TRUE(cache.Acquire("b").ok());
  EXPECT_EQ(obs::MetricsRegistry::Get()
                    .GetCounter("gem_store_cache_hits_total")
                    .value() -
                hits_before,
            2u);

  // Once eviction works again, the next insert re-converges the cache
  // all the way back to capacity.
  fault::Reset();
  ASSERT_TRUE(cache.Acquire("c").ok());
  EXPECT_EQ(cache.resident(), 1u);
}

TEST_F(StoreChaosTest, ProbabilisticOpenStormDegradesCleanly) {
  FenceCacheOptions options;
  options.capacity = 2;
  options.retry = FastRetry(1);
  FenceCache cache(options);
  const std::vector<std::string> ids = {"a", "b", "c", "d"};
  for (const std::string& id : ids) {
    ASSERT_TRUE(cache.Register(id, *v2_path_).ok());
  }
  ASSERT_TRUE(
      fault::Configure("store.mmap.open=prob=0.5@5/unavailable").ok());

  std::atomic<int> ok_count{0};
  std::atomic<int> unavailable_count{0};
  std::atomic<int> unexpected_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 16; ++i) {
        const auto fence = cache.Acquire(ids[(t + i) % ids.size()]);
        if (fence.ok()) {
          // A local overlay: serving into the fence's own would make
          // evictions rewrite the shared fixture snapshot.
          core::GemOverlay overlay;
          std::lock_guard lock(fence.value()->mutex);
          (void)fence.value()->gem.Infer(
              dataset_->test[i % dataset_->test.size()], overlay);
          ok_count.fetch_add(1);
        } else if (fence.status().code() == StatusCode::kUnavailable) {
          unavailable_count.fetch_add(1);
        } else {
          unexpected_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every request got a definite answer: a model or kUnavailable.
  EXPECT_EQ(unexpected_count.load(), 0);
  EXPECT_EQ(ok_count.load() + unavailable_count.load(), 64);
  EXPECT_GT(ok_count.load(), 0);
  EXPECT_LE(cache.resident(), 2u);

  // The storm leaves no lasting damage: with the fault cleared every
  // fence cold-loads on demand.
  fault::Reset();
  for (const std::string& id : ids) {
    EXPECT_TRUE(cache.Acquire(id).ok()) << id;
  }
}

}  // namespace
}  // namespace gem::store
