// Chaos layer over gem::serve: seeded failpoint schedules drive a
// multi-fence engine and the tests assert system-level invariants —
// no crash, no stuck request, a definite Status for every request,
// and an old fence generation that keeps serving across failed live
// reloads. Schedules are seeded (prob=P@SEED) so every run, including
// the TSan CI run, replays the same injection pattern, and no case
// orders events with a sleep. This binary only exists in builds
// configured with -DGEM_ENABLE_FAILPOINTS=ON.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/gem.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "rf/dataset.h"
#include "serve/engine.h"
#include "serve/fence_registry.h"
#include "store/fence_cache.h"
#include "store/mapped_model.h"
#include "store/snapshot_v2.h"

namespace gem::serve {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

rf::Dataset SmallDataset() {
  rf::DatasetOptions options;
  options.train_duration_s = 180.0;
  options.test_segments = 2;
  options.test_segment_duration_s = 60.0;
  options.seed = 77;
  return rf::GenerateScenarioDataset(rf::HomePreset(2), options);
}

core::GemConfig FastConfig() {
  core::GemConfig config;
  config.bisage.dimension = 8;
  config.bisage.epochs = 1;
  return config;
}

uint64_t InstallFailures(const char* phase) {
  return obs::MetricsRegistry::Get()
      .GetCounter("gem_store_install_failures_total", {{"phase", phase}})
      .value();
}

uint64_t LoadRetries() {
  return obs::MetricsRegistry::Get()
      .GetCounter("gem_store_load_retries_total")
      .value();
}

uint64_t CacheHits() {
  return obs::MetricsRegistry::Get()
      .GetCounter("gem_store_cache_hits_total")
      .value();
}

uint64_t DeadlineExceededCount() {
  return obs::MetricsRegistry::Get()
      .GetCounter("gem_serve_responses_total",
                  {{"result", "deadline_exceeded"}})
      .value();
}

store::RetryOptions FastRetry(int attempts) {
  store::RetryOptions retry;
  retry.max_attempts = attempts;
  retry.initial_backoff = std::chrono::milliseconds(1);
  return retry;
}

/// A cache whose loads make `attempts` attempts and that never folds
/// overlays back into their files: the tests serve the shared fixture
/// snapshot, which must stay as trained.
std::shared_ptr<store::FenceCache> MakeCache(int attempts = 1) {
  store::FenceCacheOptions options;
  options.retry = FastRetry(attempts);
  options.flush_on_evict = false;
  return std::make_shared<store::FenceCache>(options);
}

/// Blocks until steady_clock has passed `t`. Callers take `t` as
/// now() + deadline just after Submit returns, so it is no earlier than
/// the deadline the engine computed inside Submit.
void WaitPast(std::chrono::steady_clock::time_point t) {
  while (std::chrono::steady_clock::now() <= t) {
    std::this_thread::sleep_until(t);
  }
}

/// Trains once per process and snapshots; tests serve fences mapped
/// from the snapshot. Every test starts and ends with a clean
/// failpoint registry so schedules cannot leak across tests.
class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new rf::Dataset(SmallDataset());
    core::Gem gem(FastConfig());
    ASSERT_TRUE(gem.Train(dataset_->train).ok());
    snapshot_path_ = new std::string(TempPath("chaos_test_model.gem"));
    ASSERT_TRUE(store::SaveSnapshotV2(*snapshot_path_, gem).ok());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete snapshot_path_;
    dataset_ = nullptr;
    snapshot_path_ = nullptr;
  }

  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }

  static core::Gem LoadModel() {
    auto gem = store::LoadSnapshotV2(*snapshot_path_);
    EXPECT_TRUE(gem.ok()) << gem.status().ToString();
    return std::move(gem).value();
  }

  /// Installs the fixture snapshot under each of `ids` in `cache` and
  /// attaches the cache to `registry`.
  static void ServeFixture(const std::shared_ptr<store::FenceCache>& cache,
                           FenceRegistry& registry,
                           const std::vector<std::string>& ids) {
    for (const std::string& id : ids) {
      const auto generation = cache->Install(id, *snapshot_path_);
      EXPECT_TRUE(generation.ok()) << generation.status().ToString();
    }
    registry.AttachStore(cache);
  }

  static rf::Dataset* dataset_;
  static std::string* snapshot_path_;
};

rf::Dataset* ChaosTest::dataset_ = nullptr;
std::string* ChaosTest::snapshot_path_ = nullptr;

// The headline invariant run: 4 fences, 4 workers, 4 client threads,
// with seeded admission and execution faults firing throughout. Every
// request must come back with a definite Status from the known set,
// the totals must add up, and the engine must shut down cleanly — for
// every seed.
TEST_F(ChaosTest, SeededChaosEveryRequestGetsADefiniteAnswer) {
  constexpr int kFences = 4;
  constexpr int kRequestsPerClient = 50;
  for (const int seed : {11, 23, 47}) {
    fault::Reset();
    ASSERT_TRUE(fault::Configure(
                    "serve.engine.admit=prob=0.08@" + std::to_string(seed) +
                    "/unavailable;"
                    "serve.engine.process=prob=0.12@" +
                    std::to_string(seed + 100) + "/unavailable/delay=1")
                    .ok());

    FenceRegistry registry;
    ServeFixture(MakeCache(), registry,
                 {"home_0", "home_1", "home_2", "home_3"});
    EngineOptions options;
    options.num_threads = 4;
    options.max_queue_depth = 32;
    Engine engine(&registry, options);

    std::atomic<int> ok_count{0};
    std::atomic<int> unavailable_count{0};
    std::atomic<int> unexpected_count{0};
    std::vector<std::thread> clients;
    clients.reserve(kFences);
    for (int f = 0; f < kFences; ++f) {
      clients.emplace_back([&, f] {
        const std::string fence_id = "home_" + std::to_string(f);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          ServeRequest request;
          request.fence_id = fence_id;
          request.record =
              dataset_->test[i % dataset_->test.size()];
          const ServeResponse response = engine.InferBlocking(request);
          if (response.status.ok()) {
            ok_count.fetch_add(1);
          } else if (response.status.code() == StatusCode::kUnavailable) {
            unavailable_count.fetch_add(1);
          } else {
            unexpected_count.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    engine.Shutdown();

    // Definite answers, nothing lost, nothing outside the fault model.
    EXPECT_EQ(unexpected_count.load(), 0) << "seed " << seed;
    EXPECT_EQ(ok_count.load() + unavailable_count.load(),
              kFences * kRequestsPerClient)
        << "seed " << seed;
    // At ~20% combined injection over 200 requests both outcomes are
    // statistically certain to appear.
    EXPECT_GT(ok_count.load(), 0) << "seed " << seed;
    EXPECT_GT(unavailable_count.load(), 0) << "seed " << seed;
    EXPECT_EQ(engine.queue_depth(), 0u) << "seed " << seed;
  }
}

// The acceptance scenario: a live reload whose snapshot load fails for
// good must leave the previously installed generation serving, visible
// both through gem_store_install_failures_total and through a
// successful post-failure request against generation 1.
TEST_F(ChaosTest, FailedReloadKeepsOldGenerationServing) {
  const auto cache = MakeCache(/*attempts=*/2);
  FenceRegistry registry;
  ServeFixture(cache, registry, {"home"});
  Engine engine(&registry, EngineOptions{/*num_threads=*/2});

  const uint64_t failures_before = InstallFailures("reload");
  const uint64_t retries_before = LoadRetries();
  ASSERT_TRUE(fault::Configure("store.mmap.open=always/unavailable").ok());
  const auto reload = cache->Install("home", *snapshot_path_);
  EXPECT_EQ(reload.code(), StatusCode::kUnavailable);
  EXPECT_EQ(InstallFailures("reload") - failures_before, 1u);
  // 2 attempts = 1 retry before giving up.
  EXPECT_EQ(LoadRetries() - retries_before, 1u);

  // Generation 1 is untouched and still answers traffic.
  const auto fence = cache->Acquire("home");
  ASSERT_TRUE(fence.ok()) << fence.status().ToString();
  EXPECT_EQ(fence.value()->generation, 1u);
  ServeRequest request;
  request.fence_id = "home";
  request.record = dataset_->test.front();
  const ServeResponse response = engine.InferBlocking(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.fence_generation, 1u);

  // Clearing the schedule lets the same reload succeed: generation 2.
  fault::Reset();
  const auto healed = cache->Install("home", *snapshot_path_);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed.value(), 2u);
  engine.Shutdown();
}

TEST_F(ChaosTest, InitialInstallFailureIsLabeledInitial) {
  const auto cache = MakeCache();
  const uint64_t failures_before = InstallFailures("initial");
  ASSERT_TRUE(fault::Configure("store.mmap.open=always/unavailable").ok());
  const auto install = cache->Install("fresh", *snapshot_path_);
  EXPECT_EQ(install.code(), StatusCode::kUnavailable);
  EXPECT_EQ(InstallFailures("initial") - failures_before, 1u);
  EXPECT_EQ(cache->Acquire("fresh").status().code(), StatusCode::kNotFound);
}

TEST_F(ChaosTest, RegistryReloadInjectionDegradesGracefully) {
  const auto cache = MakeCache();
  ASSERT_TRUE(cache->Install("home", *snapshot_path_).ok());
  const uint64_t failures_before = InstallFailures("reload");
  ASSERT_TRUE(fault::Configure("store.cache.install=once/internal").ok());
  const auto reload = cache->Install("home", *snapshot_path_);
  EXPECT_EQ(reload.code(), StatusCode::kInternal);
  EXPECT_EQ(InstallFailures("reload") - failures_before, 1u);
  EXPECT_EQ(cache->Acquire("home").value()->generation, 1u);
}

TEST_F(ChaosTest, TransientSnapshotFailureRetriesToSuccess) {
  ASSERT_TRUE(fault::Configure("store.mmap.open=once/unavailable").ok());
  const uint64_t retries_before = LoadRetries();
  const auto model = store::OpenWithRetry(*snapshot_path_, FastRetry(3));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(fault::HitCount("store.mmap.open"), 2u);
  EXPECT_EQ(LoadRetries() - retries_before, 1u);
}

TEST_F(ChaosTest, RetryGivesUpAfterMaxAttempts) {
  ASSERT_TRUE(fault::Configure("store.mmap.open=always/unavailable").ok());
  const auto model = store::OpenWithRetry(*snapshot_path_, FastRetry(3));
  EXPECT_EQ(model.code(), StatusCode::kUnavailable);
  EXPECT_EQ(fault::HitCount("store.mmap.open"), 3u);
}

TEST_F(ChaosTest, TerminalCodesAreNotRetried) {
  // An injected validation failure is corruption: retrying cannot help
  // and must not happen.
  ASSERT_TRUE(
      fault::Configure("store.snapshot.validate=always/data_loss").ok());
  const uint64_t retries_before = LoadRetries();
  const auto model = store::OpenWithRetry(*snapshot_path_, FastRetry(3));
  EXPECT_EQ(model.code(), StatusCode::kDataLoss);
  EXPECT_EQ(fault::HitCount("store.snapshot.validate"), 1u);
  EXPECT_EQ(LoadRetries() - retries_before, 0u);
}

TEST_F(ChaosTest, SaveRenameInjectionLeavesNoArtifacts) {
  const std::string path = TempPath("chaos_rename_victim.gem");
  // TempDir persists across runs; start from a clean slate.
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  core::Gem gem = LoadModel();
  ASSERT_TRUE(fault::Configure("store.snapshot.rename=once/internal").ok());
  EXPECT_EQ(store::SaveSnapshotV2(path, gem).code(), StatusCode::kInternal);
  // Neither a torn final file nor a leftover temp file.
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  // With the failpoint exhausted the same save completes and maps.
  ASSERT_TRUE(store::SaveSnapshotV2(path, gem).ok());
  EXPECT_TRUE(store::MappedModel::Open(path).ok());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST_F(ChaosTest, WorkerInjectionAnswersWithInjectedStatus) {
  FenceRegistry registry;
  ServeFixture(MakeCache(), registry, {"home"});
  Engine engine(&registry, EngineOptions{/*num_threads=*/1});
  ASSERT_TRUE(fault::Configure("serve.engine.process=once/internal").ok());

  ServeRequest request;
  request.fence_id = "home";
  request.record = dataset_->test.front();
  EXPECT_EQ(engine.InferBlocking(request).status.code(),
            StatusCode::kInternal);
  // The schedule is exhausted: the identical request now serves.
  EXPECT_TRUE(engine.InferBlocking(request).status.ok());
  engine.Shutdown();
}

// --- Deadlines ------------------------------------------------------

TEST_F(ChaosTest, DeadlineExpiresInQueueBehindSlowWork) {
  const auto cache = MakeCache();
  FenceRegistry registry;
  ServeFixture(cache, registry, {"home"});
  Engine engine(&registry, EngineOptions{/*num_threads=*/1});
  const std::shared_ptr<Fence> fence = cache->Acquire("home").value();

  const uint64_t exceeded_before = DeadlineExceededCount();
  std::promise<ServeResponse> first_done;
  std::promise<ServeResponse> second_done;
  {
    // Stall the single worker on the fence mutex so the second request
    // ages past its deadline while still queued.
    std::unique_lock stall(fence->mutex);
    ServeRequest first;
    first.fence_id = "home";
    first.record = dataset_->test.front();
    ASSERT_TRUE(engine
                    .Submit(first,
                            [&](ServeResponse r) {
                              first_done.set_value(std::move(r));
                            })
                    .ok());
    while (engine.queue_depth() != 0) std::this_thread::yield();

    ServeRequest second;
    second.fence_id = "home";
    second.record = dataset_->test.front();
    second.deadline = std::chrono::milliseconds(10);
    ASSERT_TRUE(engine
                    .Submit(second,
                            [&](ServeResponse r) {
                              second_done.set_value(std::move(r));
                            })
                    .ok());
    WaitPast(std::chrono::steady_clock::now() + second.deadline);
  }
  // First request had no deadline: it serves once the stall lifts.
  EXPECT_TRUE(first_done.get_future().get().status.ok());
  const ServeResponse expired = second_done.get_future().get();
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(expired.status.message().find("in queue"), std::string::npos);
  EXPECT_GE(DeadlineExceededCount() - exceeded_before, 1u);
  engine.Shutdown();
}

TEST_F(ChaosTest, DeadlineExpiresWaitingForBusyFence) {
  const auto cache = MakeCache();
  FenceRegistry registry;
  ServeFixture(cache, registry, {"home"});
  Engine engine(&registry, EngineOptions{/*num_threads=*/1});
  const std::shared_ptr<Fence> fence = cache->Acquire("home").value();

  std::promise<ServeResponse> done;
  std::future<ServeResponse> answer = done.get_future();
  {
    // The worker dequeues (the queue-side check passes: the deadline is
    // far above any dequeue latency), pins the fence, and then outwaits
    // its deadline blocked on the fence mutex.
    std::unique_lock stall(fence->mutex);
    ServeRequest request;
    request.fence_id = "home";
    request.record = dataset_->test.front();
    request.deadline = std::chrono::seconds(1);
    const uint64_t hits_at_submit = CacheHits();
    ASSERT_TRUE(engine
                    .Submit(request,
                            [&](ServeResponse r) {
                              done.set_value(std::move(r));
                            })
                    .ok());
    const auto expired_at = std::chrono::steady_clock::now() + request.deadline;
    // Process resolves the fence only after its queue-side check, so a
    // cache hit means the worker is past that check.
    bool answered_early = false;
    while (CacheHits() == hits_at_submit) {
      if (answer.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        answered_early = true;  // fails the expectations below
        break;
      }
      std::this_thread::yield();
    }
    if (!answered_early) WaitPast(expired_at);
  }
  const ServeResponse expired = answer.get();
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(expired.status.message().find("waiting for fence"),
            std::string::npos)
      << expired.status.ToString();
  engine.Shutdown();
}

TEST_F(ChaosTest, EngineDefaultDeadlineApplies) {
  const auto cache = MakeCache();
  FenceRegistry registry;
  ServeFixture(cache, registry, {"home"});
  EngineOptions options;
  options.num_threads = 1;
  options.default_deadline = std::chrono::milliseconds(15);
  Engine engine(&registry, options);
  const std::shared_ptr<Fence> fence = cache->Acquire("home").value();

  std::promise<ServeResponse> done;
  {
    std::unique_lock stall(fence->mutex);
    ServeRequest request;  // no per-request deadline
    request.fence_id = "home";
    request.record = dataset_->test.front();
    ASSERT_TRUE(engine
                    .Submit(request,
                            [&](ServeResponse r) {
                              done.set_value(std::move(r));
                            })
                    .ok());
    WaitPast(std::chrono::steady_clock::now() + options.default_deadline);
  }
  EXPECT_EQ(done.get_future().get().status.code(),
            StatusCode::kDeadlineExceeded);
  engine.Shutdown();
}

TEST_F(ChaosTest, NegativeDeadlineIsRejectedAtSubmit) {
  FenceRegistry registry;
  ServeFixture(MakeCache(), registry, {"home"});
  Engine engine(&registry, EngineOptions{/*num_threads=*/1});
  ServeRequest request;
  request.fence_id = "home";
  request.record = dataset_->test.front();
  request.deadline = std::chrono::milliseconds(-1);
  bool callback_ran = false;
  EXPECT_EQ(engine
                .Submit(std::move(request),
                        [&](ServeResponse) { callback_ran = true; })
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(callback_ran);
  engine.Shutdown();
}

// A reload storm with a flaky snapshot source: clients hammer the
// fence throughout and every lookup must resolve — a failed reload is
// invisible to traffic except through metrics.
TEST_F(ChaosTest, ReloadStormNeverInterruptsServing) {
  // Every Fence construction bumps gem_registry_generations_live and
  // every destruction decrements it; across a storm of reloads (each
  // success replaces a generation) the gauge must return EXACTLY to
  // its pre-test value once the cache dies — a residue would mean a
  // generation leaked past the storm (held forever, or double-counted).
  const double generations_before =
      Fence::GenerationsLiveGauge().value();
  {
  const auto cache = MakeCache();
  FenceRegistry registry;
  ServeFixture(cache, registry, {"home"});
  Engine engine(&registry, EngineOptions{/*num_threads=*/2});
  ASSERT_TRUE(
      fault::Configure("store.mmap.open=prob=0.5@5/unavailable").ok());

  const uint64_t failures_before = InstallFailures("reload");
  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        ServeRequest request;
        request.fence_id = "home";
        request.record = dataset_->test[served.load() %
                                        dataset_->test.size()];
        const ServeResponse response = engine.InferBlocking(request);
        // kUnavailable can only mean queue backpressure here; the
        // fence itself must always resolve.
        ASSERT_TRUE(response.status.ok() ||
                    response.status.code() == StatusCode::kUnavailable)
            << response.status.ToString();
        if (response.status.ok()) served.fetch_add(1);
      }
    });
  }

  int reload_failures = 0;
  int reload_successes = 0;
  for (int i = 0; i < 8; ++i) {
    const auto reload = cache->Install("home", *snapshot_path_);
    if (reload.ok()) {
      ++reload_successes;
    } else {
      ++reload_failures;
    }
    // The fence is ALWAYS resolvable, whatever the reload outcome.
    ASSERT_TRUE(cache->Acquire("home").ok());
  }
  // The reload storm outpaces the clients; let traffic prove the fence
  // stayed serviceable before stopping (the ctest TIMEOUT bounds this).
  while (served.load() < 20) std::this_thread::yield();
  stop.store(true);
  for (std::thread& client : clients) client.join();
  engine.Shutdown();

  EXPECT_EQ(reload_failures + reload_successes, 8);
  EXPECT_EQ(InstallFailures("reload") - failures_before,
            static_cast<uint64_t>(reload_failures));
  EXPECT_EQ(cache->Acquire("home").value()->generation,
            static_cast<uint64_t>(1 + reload_successes));
  EXPECT_GT(served.load(), 0);
  // While the cache lives it holds exactly one generation of "home"
  // (replaced generations died with their last in-flight holder).
  EXPECT_EQ(Fence::GenerationsLiveGauge().value(),
            generations_before + 1.0);
  }
  EXPECT_EQ(Fence::GenerationsLiveGauge().value(), generations_before);
}

}  // namespace
}  // namespace gem::serve
