#ifndef GEM_STORE_FENCE_CACHE_H_
#define GEM_STORE_FENCE_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "core/overlay.h"
#include "serve/fence.h"
#include "store/mapped_model.h"

namespace gem::store {

struct FenceCacheOptions {
  /// Maximum models resident in memory at once. Registration is
  /// unbounded (1M fences on one box is the design point); residency
  /// is what this caps.
  size_t capacity = 64;
  /// Cold-load retry policy (only transient codes retry).
  RetryOptions retry;
  /// Passed through to MappedModel::Open on every cold load.
  MappedModelOptions mapped;
  /// Installed on every loaded fence's overlay: when the overlay
  /// outgrows these limits the cache compacts it back into the
  /// snapshot on the next unpinned Acquire. Zero limits = compact only
  /// on evict/deregister/teardown.
  core::OverlayLimits overlay_limits;
  /// Fold a non-empty overlay back into its snapshot file (compaction
  /// + atomic v2 rewrite) when the cache drops its last reference on
  /// evict, deregister, or teardown. Off = online updates die with the
  /// residency, as they did before overlays existed.
  bool flush_on_evict = true;

  /// kInvalidArgument unless capacity >= 1 and the nested option
  /// structs (retry, mapped, overlay_limits) validate.
  Status Validate() const;
};

/// Bounded LRU of resident fence models over a snapshot directory.
///
/// The registry of fence id -> snapshot path is cheap and unbounded;
/// models are materialized only on Acquire (cold load: mmap + in-place
/// validation via OpenWithRetry) and evicted least-recently-used once
/// more than `capacity` are resident. The moving parts:
///
///  - **Pinning.** Acquire returns a shared_ptr<serve::Fence>; an
///    in-flight request keeps serving against its pinned model even if
///    eviction or invalidation drops the cache's reference mid-request.
///    Eviction never blocks on or invalidates pinned holders.
///  - **Single-flight cold loads.** Concurrent Acquires of the same
///    cold fence collapse to one disk load; the others wait on it and
///    share the result (counted as misses — they did wait for disk).
///  - **Generation-aware invalidation.** Invalidate(id) marks the
///    resident model stale (dropped from the cache; pinned holders are
///    undisturbed) so the next Acquire cold-loads the file again under
///    a bumped Fence::generation. A load that races an Invalidate is
///    discarded and re-run — an Acquire never returns a model older
///    than the last Invalidate it observed.
///
///  - **Mapped serving.** Every snapshot is served straight over its
///    read-only mapping (store::MappedModel): the Fence's base Gem
///    borrows its bulk tensors from the mapping, so a cold load does
///    no bulk memcpys, eviction is an munmap, and the
///    resident set's clean pages are shared + kernel-reclaimable. The
///    resident_bytes gauge therefore reports mapping EXTENT; the real
///    pressure signal is gem_store_private_dirty_bytes (process-wide
///    Private_Dirty via /proc/self/smaps_rollup, refreshed on flush
///    paths only — the /proc walk is too slow for the per-load fast
///    path), which stays near-flat as mapped fences stack up.
///  - **Overlay flush.** Online updates land in each Fence's overlay,
///    not its base. When the cache drops its last reference (evict,
///    deregister, teardown) — or an overlay outgrows
///    options.overlay_limits — the overlay is compacted into the base
///    and the snapshot file atomically rewritten (v2), so the next
///    cold load serves the updated model. Flush never runs while other
///    holders pin the fence; their in-flight traffic finishes against
///    the pre-flush model.
///
/// Instrumentation: gem_store_cache_{hits,misses,evictions}_total,
/// gem_store_cache_resident / _resident_bytes gauges (bytes = snapshot
/// file size, the paging footprint of the resident set), the
/// gem_store_private_dirty_bytes gauge, the
/// gem_store_overlay_flushes_total / _flush_failures_total counters,
/// the gem_store_cold_load_seconds histogram, and a `store.cold_load`
/// timeline span per disk load. Failpoints: the load path inherits
/// store.mmap.open / store.mmap.map / store.snapshot.validate;
/// store.cache.evict fires on the eviction path.
class FenceCache {
 public:
  explicit FenceCache(FenceCacheOptions options = {});
  /// Drops every resident model (pinned holders finish undisturbed) so
  /// the resident gauges read zero after the cache is torn down.
  ~FenceCache();

  FenceCache(const FenceCache&) = delete;
  FenceCache& operator=(const FenceCache&) = delete;

  /// Registers (or repoints) the snapshot path backing `fence_id`.
  /// Repointing an id with a resident model invalidates it.
  Status Register(const std::string& fence_id, const std::string& path);

  /// Drops the registration and any resident model; pinned holders
  /// finish undisturbed. kNotFound when the id is unknown.
  Status Deregister(const std::string& fence_id);

  /// The resident model for `fence_id`, pinned; cold-loads on miss.
  /// kNotFound when the id is not registered (or its snapshot file is
  /// missing), kDataLoss on a corrupt snapshot, kUnavailable on
  /// transient load failure after retries.
  StatusOr<std::shared_ptr<serve::Fence>> Acquire(
      const std::string& fence_id);

  /// Marks `fence_id`'s resident model (if any) stale; the next
  /// Acquire reloads from disk. kNotFound when the id is unknown. The
  /// overlay is NOT flushed first: invalidation means the file changed
  /// externally, and compacting a stale base over it would clobber the
  /// new snapshot.
  Status Invalidate(const std::string& fence_id);

  /// Compacts `fence_id`'s resident overlay into its base, atomically
  /// rewrites the snapshot file (v2 layout), and drops the resident
  /// model so the next Acquire serves the flushed file. Ok and a no-op
  /// when the id is registered but cold or its overlay is empty;
  /// kNotFound when unknown. Pinned holders finish against the
  /// pre-flush model; updates they make after the flush point are not
  /// captured.
  Status Flush(const std::string& fence_id);

  size_t resident() const;
  size_t registered() const;
  uint64_t resident_bytes() const;
  std::vector<std::string> RegisteredIds() const;

  const FenceCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string path;
    /// Fence::generation for the next successful load of this id.
    /// Monotonic across evictions and invalidations for the lifetime
    /// of the registration.
    uint64_t next_generation = 1;
    /// Bumped by Invalidate/Register-repoint; a cold load started
    /// under an older epoch is discarded instead of cached.
    uint64_t epoch = 0;
    /// Single-flight: true while one thread runs the disk load.
    bool loading = false;
    /// Resident state (null when cold). `lru` is valid iff fence set.
    std::shared_ptr<serve::Fence> fence;
    std::list<std::string>::iterator lru;
    uint64_t bytes = 0;
  };

  /// Drops `entry`'s resident model (cache ref only; holders keep it)
  /// and returns the dropped reference so the caller can decide
  /// whether to flush its overlay. Caller holds mutex_.
  std::shared_ptr<serve::Fence> DropResidentLocked(Entry* entry);
  /// Compacts + saves `fence`'s overlay to `path` when flushing is
  /// enabled, the overlay is non-empty, and `fence` is the sole
  /// remaining reference (nobody pinned). Caller holds mutex_.
  void MaybeFlushDroppedLocked(const std::string& path,
                               std::shared_ptr<serve::Fence> fence);
  /// Evicts LRU entries until at most `capacity` are resident. Caller
  /// holds mutex_.
  void EvictToCapacityLocked();

  const FenceCacheOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable load_done_;
  std::unordered_map<std::string, Entry> entries_;
  /// Most-recently-used at the front; contains exactly the resident ids.
  std::list<std::string> lru_;
  size_t num_resident_ = 0;
  uint64_t resident_bytes_ = 0;
};

}  // namespace gem::store

#endif  // GEM_STORE_FENCE_CACHE_H_
