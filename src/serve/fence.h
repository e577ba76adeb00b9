#ifndef GEM_SERVE_FENCE_H_
#define GEM_SERVE_FENCE_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/gem.h"
#include "core/overlay.h"
#include "obs/metrics.h"

namespace gem::serve {

/// One loaded fence: a tenant's trained model (an immutable base),
/// the overlay that accumulates its online updates, and the mutex
/// serializing access to the pair. The engine serves through the
/// const read API — `gem.Infer(record, overlay)` — so the base is
/// never written: inductive graph growth and detector absorption land
/// in `overlay`, which is why `gem` may be backed by borrowed views
/// over a read-only snapshot mapping (store::MappedModel). The overlay
/// IS shared mutable state, so ALL model calls must still hold
/// `mutex`; concurrency in the serving engine comes from running many
/// fences in parallel, not from sharing one.
///
/// Lives in its own header (below fence_registry.h) so the storage
/// layer (gem::store::FenceCache) can hand out the same pinned-model
/// currency as the registry without depending on the registry.
struct Fence {
  Fence(std::string id_in, uint64_t generation_in, core::Gem gem_in,
        std::shared_ptr<void> backing_in = nullptr)
      : id(std::move(id_in)),
        generation(generation_in),
        backing(std::move(backing_in)),
        gem(std::move(gem_in)) {
    GenerationsLiveGauge().Add(1.0);
  }
  ~Fence() { GenerationsLiveGauge().Add(-1.0); }

  Fence(const Fence&) = delete;
  Fence& operator=(const Fence&) = delete;

  const std::string id;
  /// Bumped each time the fence id is (re)installed; lets callers
  /// observe that a live reload swapped the model under them.
  const uint64_t generation;
  std::mutex mutex;
  /// Keep-alive for a mapped base: when `gem` holds borrowed views
  /// over an mmap'd snapshot this owns the mapping. Declared before
  /// `gem`/`overlay` so it is destroyed LAST (members destruct in
  /// reverse order) — the views die before the pages they point at.
  /// Null only for a Gem that owns its storage (FenceRegistry::Install
  /// of an in-memory model).
  const std::shared_ptr<void> backing;
  core::Gem gem;
  /// Online updates relative to `gem`'s base: appended graph nodes,
  /// continued embedder state, and the detector clone absorbing
  /// confident normals. Mutated under `mutex`; folded back into a
  /// snapshot by the store layer on flush/evict.
  core::GemOverlay overlay;

  /// Count of Fence objects currently alive across the process: the
  /// installed generation of every fence PLUS any replaced generations
  /// still pinned by in-flight readers. A live reload bumps it to 2
  /// for that fence until the last holder of the old generation drops
  /// it — the reload-storm chaos test asserts it settles back down, so
  /// a generation leak (a reload path that never releases the old
  /// model) is caught by CI instead of by a production OOM.
  static obs::Gauge& GenerationsLiveGauge() {
    static obs::Gauge& gauge = obs::MetricsRegistry::Get().GetGauge(
        "gem_registry_generations_live");
    return gauge;
  }
};

}  // namespace gem::serve

#endif  // GEM_SERVE_FENCE_H_
