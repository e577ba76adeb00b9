#include "store/fence_cache.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/meminfo.h"
#include "store/snapshot_v2.h"

namespace gem::store {
namespace {

struct CacheMetrics {
  obs::Counter& hits = obs::MetricsRegistry::Get().GetCounter(
      "gem_store_cache_hits_total");
  obs::Counter& misses = obs::MetricsRegistry::Get().GetCounter(
      "gem_store_cache_misses_total");
  obs::Counter& evictions = obs::MetricsRegistry::Get().GetCounter(
      "gem_store_cache_evictions_total");
  obs::Counter& overlay_flushes = obs::MetricsRegistry::Get().GetCounter(
      "gem_store_overlay_flushes_total");
  obs::Counter& overlay_flush_failures =
      obs::MetricsRegistry::Get().GetCounter(
          "gem_store_overlay_flush_failures_total");
  obs::Gauge& resident = obs::MetricsRegistry::Get().GetGauge(
      "gem_store_cache_resident");
  obs::Gauge& resident_bytes = obs::MetricsRegistry::Get().GetGauge(
      "gem_store_cache_resident_bytes");
  obs::Gauge& private_dirty = obs::MetricsRegistry::Get().GetGauge(
      "gem_store_private_dirty_bytes");
  obs::Histogram& cold_load_seconds =
      obs::MetricsRegistry::Get().GetHistogram("gem_store_cold_load_seconds",
                                               obs::LatencyBuckets());

  static CacheMetrics& Get() {
    static CacheMetrics metrics;
    return metrics;
  }
};

/// Best-effort refresh of the process-wide Private_Dirty gauge. Cold
/// paths only — it costs a /proc read.
void RefreshPrivateDirtyGauge() {
  StatusOr<uint64_t> bytes = PrivateDirtyBytes();
  if (bytes.ok()) {
    CacheMetrics::Get().private_dirty.Set(static_cast<double>(*bytes));
  }
}

/// Compacts `fence`'s overlay into its base and atomically rewrites
/// `path` as a v2 snapshot. Takes the fence mutex itself (caller must
/// not hold it) so the capture is a consistent point-in-time even if
/// pinned holders are still serving.
Status CompactAndSave(serve::Fence& fence, const std::string& path) {
  std::lock_guard fence_lock(fence.mutex);
  if (fence.overlay.empty()) return Status::Ok();
  StatusOr<core::Gem> merged = fence.gem.Compacted(fence.overlay);
  if (!merged.ok()) return merged.status();
  return SaveSnapshotV2(path, *merged);
}

}  // namespace

Status FenceCacheOptions::Validate() const {
  if (capacity < 1) {
    return Status::InvalidArgument("fence cache capacity must be >= 1");
  }
  Status status = retry.Validate();
  if (!status.ok()) return status;
  if (!(status = mapped.Validate()).ok()) return status;
  return overlay_limits.Validate();
}

FenceCache::FenceCache(FenceCacheOptions options)
    : options_(std::move(options)) {}

FenceCache::~FenceCache() {
  std::lock_guard lock(mutex_);
  for (auto& [id, entry] : entries_) {
    const std::string path = entry.path;
    MaybeFlushDroppedLocked(path, DropResidentLocked(&entry));
  }
}

Status FenceCache::Register(const std::string& fence_id,
                            const std::string& path) {
  if (fence_id.empty()) {
    return Status::InvalidArgument("fence id must be non-empty");
  }
  if (path.empty()) {
    return Status::InvalidArgument("snapshot path must be non-empty");
  }
  std::lock_guard lock(mutex_);
  auto [it, inserted] = entries_.try_emplace(fence_id);
  Entry& entry = it->second;
  if (inserted) {
    entry.path = path;
    return Status::Ok();
  }
  if (entry.path == path) return Status::Ok();
  // Repoint: the resident model (if any) no longer matches the
  // registered file. No overlay flush — it would target the OLD path's
  // model with the caller already looking at a new file.
  entry.path = path;
  ++entry.epoch;
  DropResidentLocked(&entry);
  return Status::Ok();
}

Status FenceCache::Deregister(const std::string& fence_id) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(fence_id);
  if (it == entries_.end()) {
    return Status::NotFound("fence '" + fence_id +
                            "' is not registered in the store");
  }
  const std::string path = it->second.path;
  MaybeFlushDroppedLocked(path, DropResidentLocked(&it->second));
  entries_.erase(it);
  // An in-flight cold load of this id observes the missing entry and
  // reports NotFound; its waiters re-check and do the same.
  load_done_.notify_all();
  return Status::Ok();
}

Status FenceCache::Invalidate(const std::string& fence_id) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(fence_id);
  if (it == entries_.end()) {
    return Status::NotFound("fence '" + fence_id +
                            "' is not registered in the store");
  }
  ++it->second.epoch;
  // Deliberately no flush: the file changed under us, so the resident
  // overlay's base is stale and compacting it over the new snapshot
  // would lose the external update.
  DropResidentLocked(&it->second);
  return Status::Ok();
}

Status FenceCache::Flush(const std::string& fence_id) {
  CacheMetrics& metrics = CacheMetrics::Get();
  std::lock_guard lock(mutex_);
  auto it = entries_.find(fence_id);
  if (it == entries_.end()) {
    return Status::NotFound("fence '" + fence_id +
                            "' is not registered in the store");
  }
  Entry& entry = it->second;
  if (!entry.fence) return Status::Ok();  // cold: nothing to flush
  {
    std::lock_guard fence_lock(entry.fence->mutex);
    if (entry.fence->overlay.empty()) return Status::Ok();
  }
  const std::string path = entry.path;
  std::shared_ptr<serve::Fence> dropped = DropResidentLocked(&entry);
  const Status status = CompactAndSave(*dropped, path);
  (status.ok() ? metrics.overlay_flushes : metrics.overlay_flush_failures)
      .Increment();
  RefreshPrivateDirtyGauge();
  return status;
}

StatusOr<std::shared_ptr<serve::Fence>> FenceCache::Acquire(
    const std::string& fence_id) {
  CacheMetrics& metrics = CacheMetrics::Get();
  std::unique_lock lock(mutex_);
  bool waited = false;
  for (int attempt = 0;; ++attempt) {
    auto it = entries_.find(fence_id);
    if (it == entries_.end()) {
      return Status::NotFound("fence '" + fence_id +
                              "' is not registered in the store");
    }
    Entry& entry = it->second;
    if (entry.fence) {
      // Overlay compaction point: when the resident overlay outgrew
      // its limits AND nobody has it pinned, fold it into the snapshot
      // and fall through to reload the compacted base. use_count()==1
      // (under mutex_, the only place pins are handed out) proves no
      // serving thread still holds it; the fence mutex supplies the
      // ordering against the last holder's writes.
      bool compaction_due = false;
      if (options_.flush_on_evict && entry.fence.use_count() == 1) {
        std::lock_guard fence_lock(entry.fence->mutex);
        compaction_due = entry.fence->overlay.compaction_due();
      }
      if (compaction_due) {
        const std::string path = entry.path;
        MaybeFlushDroppedLocked(path, DropResidentLocked(&entry));
        continue;
      }
      lru_.splice(lru_.begin(), lru_, entry.lru);
      // A thread that waited for another thread's cold load still paid
      // the disk latency, so it does not count as a hit.
      (waited ? metrics.misses : metrics.hits).Increment();
      return entry.fence;
    }
    if (entry.loading) {
      // Single-flight: wait for the in-flight load, then re-examine
      // (resident on success; we become the loader on failure).
      waited = true;
      load_done_.wait(lock, [&] {
        auto jt = entries_.find(fence_id);
        return jt == entries_.end() || !jt->second.loading;
      });
      continue;
    }

    // We are the loader for this id.
    entry.loading = true;
    const std::string path = entry.path;
    const uint64_t epoch = entry.epoch;
    lock.unlock();

    StatusOr<MappedModel> loaded = [&]() -> StatusOr<MappedModel> {
      GEM_TRACE_SPAN("store.cold_load");
      const auto start = std::chrono::steady_clock::now();
      StatusOr<MappedModel> result =
          OpenWithRetry(path, options_.retry, options_.mapped);
      metrics.cold_load_seconds.Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count());
      return result;
    }();
    // Mapping extent (virtual), the resident-bytes accounting unit; the
    // private_dirty gauge carries the memory-pressure signal.
    const uint64_t bytes = loaded.ok() ? loaded->file_bytes() : 0;

    lock.lock();
    auto jt = entries_.find(fence_id);
    if (jt == entries_.end()) {
      // Deregistered while we were on disk.
      load_done_.notify_all();
      return Status::NotFound("fence '" + fence_id +
                              "' is not registered in the store");
    }
    Entry& loaded_entry = jt->second;
    loaded_entry.loading = false;
    load_done_.notify_all();
    metrics.misses.Increment();
    if (!loaded.ok()) return loaded.status();

    const uint64_t generation = loaded_entry.next_generation;
    // Invalidated (or repointed) while we were loading: the bytes we
    // read may predate the new file. Discard and reload — but only a
    // bounded number of times, so an invalidation storm degrades to
    // serving the freshest completed load instead of livelocking.
    const bool stale = loaded_entry.epoch != epoch;
    if (stale && attempt < 2) continue;
    loaded_entry.next_generation = generation + 1;
    std::shared_ptr<MmapFile> backing = loaded->backing();
    auto fence = std::make_shared<serve::Fence>(
        fence_id, generation, std::move(*loaded).TakeGem(),
        std::move(backing));
    fence->overlay.limits = options_.overlay_limits;
    if (stale) return fence;
    loaded_entry.fence = fence;
    lru_.push_front(fence_id);
    loaded_entry.lru = lru_.begin();
    loaded_entry.bytes = bytes;
    ++num_resident_;
    resident_bytes_ += bytes;
    metrics.resident.Set(static_cast<double>(num_resident_));
    metrics.resident_bytes.Set(static_cast<double>(resident_bytes_));
    EvictToCapacityLocked();
    return fence;
  }
}

std::shared_ptr<serve::Fence> FenceCache::DropResidentLocked(Entry* entry) {
  if (!entry->fence) return nullptr;
  lru_.erase(entry->lru);
  // Pinned holders keep the model alive; we hand our reference to the
  // caller so it can flush the overlay if it turned out to be the last.
  std::shared_ptr<serve::Fence> dropped = std::move(entry->fence);
  --num_resident_;
  resident_bytes_ -= entry->bytes;
  entry->bytes = 0;
  CacheMetrics& metrics = CacheMetrics::Get();
  metrics.resident.Set(static_cast<double>(num_resident_));
  metrics.resident_bytes.Set(static_cast<double>(resident_bytes_));
  return dropped;
}

void FenceCache::MaybeFlushDroppedLocked(const std::string& path,
                                         std::shared_ptr<serve::Fence> fence) {
  if (!options_.flush_on_evict || !fence) return;
  // Only the LAST reference flushes: with pinned holders still serving
  // (and mutating the overlay), a flush here would capture a torn
  // point-in-time and silently drop their later updates. Their
  // residency is gone either way; on the next cold load those updates
  // are lost, exactly as pre-overlay eviction lost absorbed state.
  if (fence.use_count() != 1) return;
  {
    std::lock_guard fence_lock(fence->mutex);
    if (fence->overlay.empty()) return;
  }
  CacheMetrics& metrics = CacheMetrics::Get();
  const Status status = CompactAndSave(*fence, path);
  (status.ok() ? metrics.overlay_flushes : metrics.overlay_flush_failures)
      .Increment();
  // A flush already paid for a model fold + disk write; the /proc walk
  // is proportionally cheap here (it is NOT on the per-load fast path).
  RefreshPrivateDirtyGauge();
}

void FenceCache::EvictToCapacityLocked() {
  CacheMetrics& metrics = CacheMetrics::Get();
  while (num_resident_ > options_.capacity) {
    // An injected eviction failure leaves the cache transiently over
    // capacity (never under-resident): serving continues and the next
    // insert re-runs eviction, which is what the chaos test asserts.
    GEM_FAILPOINT_ON("store.cache.evict", {
      (void)failpoint_status;
      return;
    });
    auto it = entries_.find(lru_.back());
    const std::string path = it->second.path;
    MaybeFlushDroppedLocked(path, DropResidentLocked(&it->second));
    metrics.evictions.Increment();
  }
}

size_t FenceCache::resident() const {
  std::lock_guard lock(mutex_);
  return num_resident_;
}

size_t FenceCache::registered() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

uint64_t FenceCache::resident_bytes() const {
  std::lock_guard lock(mutex_);
  return resident_bytes_;
}

std::vector<std::string> FenceCache::RegisteredIds() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace gem::store
