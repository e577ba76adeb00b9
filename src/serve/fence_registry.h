#ifndef GEM_SERVE_FENCE_REGISTRY_H_
#define GEM_SERVE_FENCE_REGISTRY_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "core/gem.h"
#include "serve/fence.h"
#include "store/fence_cache.h"

namespace gem::serve {

/// Sharded fence-id -> model registry. Lookups take a shard-local
/// shared lock (concurrent readers never contend across shards);
/// install/unload take the shard's exclusive lock. Entries are handed
/// out as shared_ptr so an in-flight request keeps serving against the
/// model it resolved even while a reload replaces or removes it — a
/// live reload never blocks on draining traffic.
///
/// AttachStore widens the registry from "everything installed up
/// front" to fleet scale: ids not installed here resolve through a
/// store::FenceCache (bounded LRU over snapshot files, cold-load on
/// miss) — registration is unbounded, residency is capped. It is
/// start-up configuration: call it before serving traffic.
class FenceRegistry {
 public:
  explicit FenceRegistry(int num_shards = 16);

  /// Inserts or replaces (live reload) the fence. The model must be
  /// trained. Returns the installed generation (1 for a first install).
  StatusOr<uint64_t> Install(const std::string& fence_id, core::Gem gem);

  /// Maps a v2 snapshot file (store::OpenWithRetry: transient
  /// failures retry per `retry`) and installs it under `fence_id`; the
  /// fence's base Gem borrows its tensors from the mapping, which
  /// Fence::backing keeps alive for as long as any holder pins that
  /// generation. Degrades gracefully: when the load fails for good, the
  /// previously installed generation (if any) keeps serving untouched
  /// and gem_serve_reload_failures_total is incremented.
  StatusOr<uint64_t> InstallFromSnapshot(
      const std::string& fence_id, const std::string& path,
      const store::RetryOptions& retry = {});

  /// Removes the fence; in-flight holders finish undisturbed.
  Status Unload(const std::string& fence_id);

  /// nullptr when the fence is not installed (does not consult the
  /// attached store; serving paths use Resolve).
  std::shared_ptr<Fence> Find(const std::string& fence_id) const;

  /// The serving lookup: installed fences, then the attached store
  /// (cold-load on miss). kNotFound when the id is neither installed
  /// nor registered in the store; store errors (kDataLoss,
  /// kUnavailable) pass through.
  StatusOr<std::shared_ptr<Fence>> Resolve(const std::string& fence_id) const;

  /// Attaches the snapshot store consulted by Resolve on a registry
  /// miss. Start-up configuration — not synchronized against in-flight
  /// Resolves.
  void AttachStore(std::shared_ptr<store::FenceCache> cache);

  /// Sorted ids of all installed fences (store-resident models are
  /// tracked by the cache, not here).
  std::vector<std::string> FenceIds() const;

  size_t size() const;

 private:
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<Fence>> fences;
  };

  Shard& ShardFor(const std::string& fence_id) const;
  /// Install with the mapping (null for an owned Gem) that `gem`'s
  /// borrowed views point into.
  StatusOr<uint64_t> InstallWithBacking(const std::string& fence_id,
                                        core::Gem gem,
                                        std::shared_ptr<void> backing);

  /// Fixed at construction; never resized (Shard is not movable).
  mutable std::vector<Shard> shards_;

  /// Start-up configuration (see AttachStore).
  std::shared_ptr<store::FenceCache> cache_;
};

}  // namespace gem::serve

#endif  // GEM_SERVE_FENCE_REGISTRY_H_
