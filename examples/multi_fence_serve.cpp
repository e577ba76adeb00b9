// multi_fence_serve — the full snapshot + serving lifecycle in one run.
//
// 1. Train GEM on four simulated homes and snapshot each to disk.
// 2. Start a fresh FenceCache (as a restarted server process would)
//    and map every snapshot back.
// 3. Drive mixed traffic for all four fences through the serving
//    engine from several client threads at once.
// 4. Mid-stream, live-reload one fence from its snapshot and watch the
//    generation counter tick without dropping traffic.
// 5. Dump the gem::obs metrics the engine recorded. The cache then
//    folds each fence's online updates back into its snapshot file.

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gem.h"
#include "obs/export.h"
#include "rf/dataset.h"
#include "serve/engine.h"
#include "serve/fence_registry.h"
#include "store/fence_cache.h"
#include "store/snapshot_v2.h"

using namespace gem;  // NOLINT(build/namespaces) example binary

namespace {

constexpr int kNumFences = 4;

rf::Dataset SimulateHome(int user) {
  rf::DatasetOptions options;
  options.train_duration_s = 240.0;  // keep the demo quick
  options.test_segments = 4;
  options.test_segment_duration_s = 60.0;
  options.seed = 1000 + static_cast<uint64_t>(user);
  return rf::GenerateScenarioDataset(rf::HomePreset(user), options);
}

}  // namespace

int main() {
  // --- Phase 1: train and snapshot four homes. -----------------------
  std::vector<std::string> snapshot_paths;
  std::vector<rf::Dataset> datasets;
  for (int user = 0; user < kNumFences; ++user) {
    datasets.push_back(SimulateHome(user));
    core::Gem gem{core::GemConfig{}};
    const Status trained = gem.Train(datasets.back().train);
    if (!trained.ok()) {
      std::fprintf(stderr, "training home %d failed: %s\n", user,
                   trained.ToString().c_str());
      return 1;
    }
    const std::string path =
        "home_" + std::to_string(user) + ".gem";
    const Status saved = store::SaveSnapshotV2(path, gem);
    if (!saved.ok()) {
      std::fprintf(stderr, "snapshot %s failed: %s\n", path.c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    snapshot_paths.push_back(path);
    std::printf("home_%d trained and snapshotted to %s\n", user,
                path.c_str());
  }

  // --- Phase 2: "restart" — a fresh cache maps the snapshots. -------
  auto cache = std::make_shared<store::FenceCache>();
  for (int user = 0; user < kNumFences; ++user) {
    const std::string fence_id = "home_" + std::to_string(user);
    auto generation = cache->Install(fence_id, snapshot_paths[user]);
    if (!generation.ok()) {
      std::fprintf(stderr, "loading %s failed: %s\n",
                   snapshot_paths[user].c_str(),
                   generation.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("cache serving %zu fences\n", cache->resident());

  // --- Phase 3+4: concurrent mixed traffic with a live reload. -------
  serve::FenceRegistry registry;
  registry.AttachStore(cache);
  serve::Engine engine(&registry);
  std::atomic<int> served{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> clients;
  clients.reserve(kNumFences);
  for (int user = 0; user < kNumFences; ++user) {
    clients.emplace_back([&, user] {
      const std::string fence_id = "home_" + std::to_string(user);
      for (const rf::ScanRecord& record : datasets[user].test) {
        serve::ServeRequest request;
        request.fence_id = fence_id;
        request.record = record;
        serve::ServeResponse response = engine.InferBlocking(request);
        while (response.status.code() == StatusCode::kUnavailable) {
          shed.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          response = engine.InferBlocking(request);
        }
        if (response.status.ok()) served.fetch_add(1);
      }
    });
  }

  // Live reload home_0 from its snapshot while the clients hammer it:
  // in-flight requests finish against the model they resolved; new
  // requests see generation 2.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto reloaded = cache->Install("home_0", snapshot_paths[0]);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "live reload failed: %s\n",
                 reloaded.status().ToString().c_str());
    return 1;
  }
  std::printf("live-reloaded home_0 (now generation %llu)\n",
              static_cast<unsigned long long>(reloaded.value()));

  for (std::thread& client : clients) client.join();
  engine.Shutdown();
  std::printf("served %d requests (%d retried after backpressure)\n",
              served.load(), shed.load());

  // --- Phase 5: what the engine observed. ----------------------------
  const Status dumped = obs::WriteMetrics("-", obs::ExportFormat::kTable);
  if (!dumped.ok()) {
    std::fprintf(stderr, "metrics dump failed: %s\n",
                 dumped.ToString().c_str());
    return 1;
  }
  return 0;
}
