#ifndef GEM_CORE_OVERLAY_H_
#define GEM_CORE_OVERLAY_H_

#include <optional>

#include "base/status.h"
#include "detect/hbos.h"
#include "embed/bisage.h"

namespace gem::core {

/// Bounds on the mutable per-fence state a GemOverlay may accumulate
/// before its owner should fold it back into a fresh base
/// (Gem::Compacted). The serving layer compacts on eviction anyway;
/// these limits let long-lived holders poll compaction_due() instead
/// of growing without bound. 0 disables a bound.
struct OverlayLimits {
  /// Graph nodes appended past the base (records + first-seen MACs).
  int max_new_nodes = 0;
  /// Detector samples absorbed through the overlay.
  long max_absorbed = 0;

  /// kInvalidArgument describing the first negative field, Ok
  /// otherwise. Checked by serve-side config validation.
  Status Validate() const;
};

/// The mutable half of Gem's base/overlay split, and the only state
/// serving writes. Gem's read side (Infer/InferBatch/Observe/Detect/
/// Update) is const and never writes the base model: graph appends,
/// lazily-drawn node-table rows, and detector absorption all land
/// here. That is what lets one immutable — typically mmap-backed —
/// base serve many fences, each with its own small private overlay,
/// and makes eviction a munmap instead of a destructor walk.
///
/// An overlay binds to the base it first served; folding it into a
/// different Gem (Compacted) is a checked error.
struct GemOverlay {
  /// Embedding side: graph delta + node-table delta.
  embed::EmbedderOverlay embedder;
  /// Copy of the base detector, cloned on the first Update() offer;
  /// absent until then (reads fall through to the base). Cloning a
  /// view-backed detector copies pointers, not pages — the clone
  /// privatizes its histogram pages only when it first absorbs.
  std::optional<detect::EnhancedHbosDetector> detector;
  /// Samples the overlay detector absorbed (compaction pressure).
  long absorbed = 0;

  OverlayLimits limits;

  bool empty() const { return embedder.empty() && !detector.has_value(); }

  /// True when a configured limit is reached; the owner should fold
  /// the overlay into a new base (Gem::Compacted) and start fresh.
  bool compaction_due() const;
};

}  // namespace gem::core

#endif  // GEM_CORE_OVERLAY_H_
