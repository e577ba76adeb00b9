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

/// Bounded LRU of resident fence models over a snapshot directory, and
/// the one owner of every served fence.
///
/// The registry of fence id -> snapshot path is cheap and unbounded;
/// models are materialized on Install (eager: map + validate, then
/// resident) or on Acquire (cold load: mmap + in-place validation via
/// OpenWithRetry) and evicted least-recently-used once more than
/// `capacity` are resident. The moving parts:
///
///  - **Pinning.** Acquire returns a shared_ptr<serve::Fence>; an
///    in-flight request keeps serving against its pinned model even if
///    eviction or a reload drops the cache's reference mid-request.
///    Eviction never blocks on or invalidates pinned holders.
///  - **Single-flight cold loads.** Concurrent Acquires of the same
///    cold fence collapse to one disk load; the others wait on it and
///    share the result (counted as misses — they did wait for disk).
///  - **Live reload.** Install(id, path) maps and validates the new
///    file before it touches the entry, so a file that fails to load
///    leaves the old generation serving. On success the new model is
///    resident under a bumped Fence::generation; a cold load that
///    raced the Install is discarded, so an Acquire never returns a
///    model older than the last Install it observed.
///
///  - **Mapped serving.** Every snapshot is served straight over its
///    read-only mapping (store::MappedModel): the Fence's base Gem
///    borrows its bulk tensors from the mapping, so a load does no
///    bulk memcpys, eviction is an munmap, and the resident set's
///    clean pages are shared + kernel-reclaimable. The
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
///    load serves the updated model. Flush never runs while other
///    holders pin the fence; their in-flight traffic finishes against
///    the pre-flush model.
///
/// Instrumentation: gem_store_cache_{hits,misses,evictions}_total,
/// gem_store_cache_resident / _resident_bytes gauges (bytes = snapshot
/// file size, the paging footprint of the resident set), the
/// gem_store_private_dirty_bytes gauge, the
/// gem_store_overlay_flushes_total / _flush_failures_total counters,
/// gem_store_install_failures_total{phase}, the
/// gem_store_cold_load_seconds histogram, and a `store.cold_load`
/// timeline span per disk load. Failpoints: both load paths inherit
/// store.mmap.open / store.mmap.map / store.snapshot.validate;
/// store.cache.install fires before Install maps its file and
/// store.cache.evict on the eviction path.
class FenceCache {
 public:
  /// The options must be valid (GEM_CHECKed).
  explicit FenceCache(FenceCacheOptions options = {});
  /// Drops every resident model (pinned holders finish undisturbed) so
  /// the resident gauges read zero after the cache is torn down.
  ~FenceCache();

  FenceCache(const FenceCache&) = delete;
  FenceCache& operator=(const FenceCache&) = delete;

  /// Registers the snapshot path backing `fence_id`; the model loads
  /// on first Acquire. Ok and a no-op when the id is already registered
  /// to `path`, kFailedPrecondition when it is registered to another
  /// file (Install repoints).
  Status Register(const std::string& fence_id, const std::string& path);

  /// Maps and validates `path` (OpenWithRetry), then registers or
  /// repoints `fence_id` at it and makes the model resident under the
  /// next generation, which it returns. The old resident model, if
  /// any, is dropped WITHOUT a flush: the new file wins, and pinned
  /// holders finish against the old mapping. On failure nothing
  /// changes — an existing generation keeps serving — and
  /// gem_store_install_failures_total{phase} counts it (`reload` for a
  /// registered id, `initial` otherwise).
  StatusOr<uint64_t> Install(const std::string& fence_id,
                             const std::string& path);

  /// Drops the registration and any resident model; pinned holders
  /// finish undisturbed. kNotFound when the id is unknown.
  Status Deregister(const std::string& fence_id);

  /// The resident model for `fence_id`, pinned; cold-loads on miss.
  /// kNotFound when the id is not registered (or its snapshot file is
  /// missing), kDataLoss on a corrupt snapshot, kUnavailable on
  /// transient load failure after retries.
  StatusOr<std::shared_ptr<serve::Fence>> Acquire(
      const std::string& fence_id);

  size_t resident() const;
  size_t registered() const;
  uint64_t resident_bytes() const;
  std::vector<std::string> RegisteredIds() const;

  const FenceCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string path;
    /// Fence::generation for the next successful load of this id.
    /// Monotonic across evictions and reloads for the lifetime of the
    /// entry.
    uint64_t next_generation = 1;
    /// Cache-wide unique identity, drawn from `registrations_` by a
    /// Register that creates the entry and by every Install. A cold
    /// load that returns to another identity leaves the entry alone
    /// and re-examines the id.
    uint64_t registration = 0;
    /// Single-flight: true while one thread runs the disk load for
    /// this registration.
    bool loading = false;
    /// Resident state (null when cold). `lru` is valid iff fence set.
    std::shared_ptr<serve::Fence> fence;
    std::list<std::string>::iterator lru;
    uint64_t bytes = 0;
  };

  /// Wraps `model` in a Fence under `entry`'s next generation, makes
  /// it resident at the LRU front and evicts down to capacity. Caller
  /// holds mutex_.
  std::shared_ptr<serve::Fence> MakeResidentLocked(const std::string& fence_id,
                                                   Entry* entry,
                                                   MappedModel model);
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
  /// Last Entry::registration handed out.
  uint64_t registrations_ = 0;
  /// Most-recently-used at the front; contains exactly the resident ids.
  std::list<std::string> lru_;
  size_t num_resident_ = 0;
  uint64_t resident_bytes_ = 0;
};

}  // namespace gem::store

#endif  // GEM_STORE_FENCE_CACHE_H_
