#ifndef GEM_SERVE_FENCE_REGISTRY_H_
#define GEM_SERVE_FENCE_REGISTRY_H_

#include <memory>
#include <string>
#include <utility>

#include "base/status.h"
#include "base/statusor.h"
#include "serve/fence.h"
#include "store/fence_cache.h"

namespace gem::serve {

/// The serving engine's handle on the fence store. Every served fence
/// lives in a store::FenceCache: install, register, reload and
/// deregister fences there; the engine only resolves ids through this
/// handle.
class FenceRegistry {
 public:
  /// The serving lookup: pins `fence_id` from the attached store
  /// (cold-load on miss). kNotFound when no store is attached or the
  /// id is not registered; store errors (kDataLoss, kUnavailable) pass
  /// through.
  StatusOr<std::shared_ptr<Fence>> Resolve(const std::string& fence_id) const {
    if (!cache_) {
      return Status::NotFound("fence '" + fence_id + "' is not loaded");
    }
    return cache_->Acquire(fence_id);
  }

  /// Attaches the store Resolve reads (nullptr detaches it). Start-up
  /// configuration — not synchronized against in-flight Resolves.
  void AttachStore(std::shared_ptr<store::FenceCache> cache) {
    cache_ = std::move(cache);
  }

 private:
  std::shared_ptr<store::FenceCache> cache_;
};

}  // namespace gem::serve

#endif  // GEM_SERVE_FENCE_REGISTRY_H_
