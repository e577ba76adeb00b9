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

/// One loaded fence: a tenant's trained model (an immutable base
/// borrowing its tensors from a read-only snapshot mapping), the
/// overlay that accumulates its online updates, and the mutex
/// serializing access to the pair. `gem` is const, so the only way to
/// serve it is `gem.Infer(record, overlay)`: inductive graph growth
/// and detector absorption land in `overlay`, never in the mapped
/// base. The overlay IS shared mutable state, so ALL model calls must
/// still hold `mutex`; concurrency in the serving engine comes from
/// running many fences in parallel, not from sharing one.
///
/// store::FenceCache creates and owns every Fence; the serving engine
/// pins one per request through serve::FenceRegistry::Resolve. The
/// struct lives in its own header so the storage layer can hand out
/// this pinned-model currency without depending on the serve library.
struct Fence {
  Fence(std::string id_in, uint64_t generation_in, core::Gem gem_in,
        std::shared_ptr<void> backing_in)
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
  /// Bumped each time the cache loads or installs the fence id; lets
  /// callers observe that a live reload swapped the model under them.
  const uint64_t generation;
  std::mutex mutex;
  /// Keep-alive for the mapped base: `gem` holds borrowed views over
  /// an mmap'd snapshot and this owns the mapping. Declared before
  /// `gem`/`overlay` so it is destroyed LAST (members destruct in
  /// reverse order) — the views die before the pages they point at.
  const std::shared_ptr<void> backing;
  const core::Gem gem;
  /// Online updates relative to `gem`'s base: appended graph nodes,
  /// continued embedder state, and the detector clone absorbing
  /// confident normals. Mutated under `mutex`; folded back into a
  /// snapshot by the store layer on flush/evict.
  core::GemOverlay overlay;

  /// Count of Fence objects currently alive across the process: the
  /// resident generation of every fence PLUS any dropped generations
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
