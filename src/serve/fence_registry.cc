#include "serve/fence_registry.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "base/check.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "store/mapped_model.h"

namespace gem::serve {
namespace {

obs::Gauge& FenceGauge() {
  static obs::Gauge& fences =
      obs::MetricsRegistry::Get().GetGauge("gem_serve_fences");
  return fences;
}

obs::Counter& InstallCounter() {
  static obs::Counter& installs =
      obs::MetricsRegistry::Get().GetCounter("gem_serve_installs_total");
  return installs;
}

/// phase = "reload" when the fence id was already serving (the failure
/// left an old generation up), "initial" for a first install.
obs::Counter& ReloadFailureCounter(const char* phase) {
  return obs::MetricsRegistry::Get().GetCounter(
      "gem_serve_reload_failures_total", {{"phase", phase}});
}

}  // namespace

FenceRegistry::FenceRegistry(int num_shards)
    : shards_(static_cast<size_t>(num_shards)) {
  GEM_CHECK(num_shards >= 1);
}

FenceRegistry::Shard& FenceRegistry::ShardFor(
    const std::string& fence_id) const {
  return shards_[std::hash<std::string>{}(fence_id) % shards_.size()];
}

Result<uint64_t> FenceRegistry::Install(const std::string& fence_id,
                                        core::Gem gem) {
  return InstallWithBacking(fence_id, std::move(gem), nullptr);
}

Result<uint64_t> FenceRegistry::InstallWithBacking(
    const std::string& fence_id, core::Gem gem,
    std::shared_ptr<void> backing) {
  if (fence_id.empty()) {
    return Status::InvalidArgument("fence id must be non-empty");
  }
  if (!gem.trained()) {
    return Status::FailedPrecondition("cannot install an untrained model");
  }
  Shard& shard = ShardFor(fence_id);
  std::shared_ptr<Fence> replaced;  // destroyed outside the lock
  uint64_t generation = 1;
  {
    std::unique_lock lock(shard.mutex);
    auto it = shard.fences.find(fence_id);
    if (it != shard.fences.end()) {
      generation = it->second->generation + 1;
      replaced = std::move(it->second);
      it->second = std::make_shared<Fence>(fence_id, generation,
                                           std::move(gem),
                                           std::move(backing));
    } else {
      shard.fences.emplace(
          fence_id, std::make_shared<Fence>(fence_id, generation,
                                            std::move(gem),
                                            std::move(backing)));
    }
  }
  InstallCounter().Increment();
  FenceGauge().Set(static_cast<double>(size()));
  return generation;
}

Result<uint64_t> FenceRegistry::InstallFromSnapshot(
    const std::string& fence_id, const std::string& path,
    const store::RetryOptions& retry) {
  const char* phase = Find(fence_id) != nullptr ? "reload" : "initial";
  StatusOr<store::MappedModel> model = [&]() -> StatusOr<store::MappedModel> {
    GEM_FAILPOINT("serve.registry.reload");
    return store::OpenWithRetry(path, retry);
  }();
  if (!model.ok()) {
    // Graceful degradation: the map is untouched, so an existing
    // generation keeps serving; only the metric records the failure.
    ReloadFailureCounter(phase).Increment();
    return model.status();
  }
  std::shared_ptr<store::MmapFile> backing = model->backing();
  return InstallWithBacking(fence_id, std::move(*model).TakeGem(),
                            std::move(backing));
}

Status FenceRegistry::Unload(const std::string& fence_id) {
  Shard& shard = ShardFor(fence_id);
  std::shared_ptr<Fence> removed;  // destroyed outside the lock
  {
    std::unique_lock lock(shard.mutex);
    auto it = shard.fences.find(fence_id);
    if (it == shard.fences.end()) {
      return Status::NotFound("fence '" + fence_id + "' is not loaded");
    }
    removed = std::move(it->second);
    shard.fences.erase(it);
  }
  FenceGauge().Set(static_cast<double>(size()));
  return Status::Ok();
}

std::shared_ptr<Fence> FenceRegistry::Find(const std::string& fence_id) const {
  const Shard& shard = ShardFor(fence_id);
  std::shared_lock lock(shard.mutex);
  const auto it = shard.fences.find(fence_id);
  return it == shard.fences.end() ? nullptr : it->second;
}

StatusOr<std::shared_ptr<Fence>> FenceRegistry::Resolve(
    const std::string& fence_id) const {
  std::shared_ptr<Fence> fence = Find(fence_id);
  if (fence) return fence;
  if (cache_) return cache_->Acquire(fence_id);
  return Status::NotFound("fence '" + fence_id + "' is not loaded");
}

void FenceRegistry::AttachStore(std::shared_ptr<store::FenceCache> cache) {
  cache_ = std::move(cache);
}

std::vector<std::string> FenceRegistry::FenceIds() const {
  std::vector<std::string> ids;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [id, fence] : shard.fences) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

size_t FenceRegistry::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    total += shard.fences.size();
  }
  return total;
}

}  // namespace gem::serve
