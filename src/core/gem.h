#ifndef GEM_CORE_GEM_H_
#define GEM_CORE_GEM_H_

#include <vector>

#include "base/statusor.h"
#include "core/geofence.h"
#include "core/overlay.h"
#include "detect/hbos.h"
#include "embed/bisage.h"
#include "graph/edge_weight.h"

namespace gem::core {

/// Full GEM configuration: the bipartite-graph edge weights, BiSAGE,
/// the enhanced histogram detector, and the online self-enhancement
/// switch. Defaults are the paper's tuned values (Section VI).
struct GemConfig {
  graph::EdgeWeightConfig edge_weight;
  embed::BiSageConfig bisage;
  detect::EnhancedHbosOptions detector;
  /// Section V-B self-enhancement (absorb highly confident normals).
  bool online_update = true;

  /// kInvalidArgument describing the first offending field across the
  /// nested configs (BiSAGE, detector), Ok otherwise. Checked by
  /// Gem::Train / Gem::FromParts and the serving engine at start-up.
  Status Validate() const;
};

/// GEM (Section III): weighted bipartite graph -> BiSAGE embeddings ->
/// enhanced histogram-based one-class detection, with online
/// embedding prediction and model self-enhancement.
///
/// A trained Gem is a read-only base: every method but Train is
/// const and writes nothing in the graph, the node tables or the
/// detector. Every side effect of serving (graph appends,
/// lazily-drawn table rows, detector absorption) lands in the
/// caller's GemOverlay. A base whose storage is borrowed
/// (store::MappedModel over a v2 snapshot) therefore serves traffic
/// zero-copy, and many fences can share one base. The overlay folds
/// back into a standalone model with Compacted().
///
/// The three inference stages (Observe/Detect/Update) are public so
/// the latency breakdown of Table III can time them independently;
/// Infer() composes them.
class Gem {
 public:
  explicit Gem(GemConfig config = GemConfig());

  /// Fits the embedder on the in-premises records, then the detector
  /// on their embeddings. Meant to run once per Gem: a second call
  /// adds the records to the existing graph, and overlays built
  /// before it no longer match the base.
  Status Train(const std::vector<rf::ScanRecord>& inside_records);

  /// Full inference for one record. The base stays frozen; the
  /// record's graph append and any detector absorption land in
  /// `overlay`.
  InferenceResult Infer(const rf::ScanRecord& record,
                        GemOverlay& overlay) const;

  /// Full inference over a batch of records on the model's thread
  /// pool: all records join the overlay's graph delta serially in
  /// input order, the embeddings are computed in parallel
  /// (bit-identical at any thread count), then detection and
  /// self-enhancement run serially in input order — so the detector
  /// sees exactly the update sequence the equivalent Infer() loop
  /// would produce. Result i corresponds to record i.
  std::vector<InferenceResult> InferBatch(
      const std::vector<rf::ScanRecord>& records, GemOverlay& overlay) const;

  /// Stage 1 (Section V-A): append the record to the overlay's graph
  /// delta and compute its primary embedding against the frozen base.
  /// kNotFound when it shares no MAC with base + overlay (outlier
  /// outright, footnote 3); kFailedPrecondition when not trained.
  StatusOr<math::Vec> Observe(const rf::ScanRecord& record,
                              GemOverlay& overlay) const;

  /// Stage 2: in-out detection on an embedding (Equation (11)),
  /// scored by the overlay's detector clone when one exists (i.e.
  /// after the overlay absorbed a sample), else by the base detector.
  InferenceResult Detect(const math::Vec& embedding,
                         const GemOverlay& overlay) const;

  /// Stage 3 (Section V-B): offer the embedding for self-enhancement.
  /// Returns whether the detector absorbed it; the base detector is
  /// cloned into the overlay on the first offer (cheap for a
  /// view-backed base — pointers, not pages). kFailedPrecondition
  /// when not trained; detector errors (dimension mismatch) pass
  /// through.
  StatusOr<bool> Update(const math::Vec& embedding, GemOverlay& overlay) const;

  /// Folds `overlay` into a standalone Gem that owns every byte
  /// (graph rebuilt with the delta applied, node tables materialized
  /// with the delta rows appended, detector clone materialized) — the
  /// write-back half of the base/overlay split: serve flushes an
  /// evicted fence by compacting and re-snapshotting it.
  /// kFailedPrecondition when untrained or when the overlay was built
  /// over a different base.
  StatusOr<Gem> Compacted(const GemOverlay& overlay) const;

  const GemConfig& config() const { return config_; }
  const embed::BiSageEmbedder& embedder() const { return embedder_; }
  const detect::EnhancedHbosDetector& detector() const { return detector_; }
  bool trained() const { return trained_; }

  /// Snapshot support (store/snapshot_v2.cc): reassembles a trained Gem
  /// from restored components. The embedder must already be fitted and
  /// the detector already carry its persisted state; the config must
  /// validate. kInvalidArgument / kFailedPrecondition otherwise.
  static StatusOr<Gem> FromParts(GemConfig config,
                                 embed::BiSageEmbedder embedder,
                                 detect::EnhancedHbosDetector detector);

 private:
  struct FromPartsTag {};
  Gem(FromPartsTag, GemConfig config, embed::BiSageEmbedder embedder,
      detect::EnhancedHbosDetector detector);

  /// Overlay detector clone when present, else the base detector.
  const detect::EnhancedHbosDetector& EffectiveDetector(
      const GemOverlay& overlay) const {
    return overlay.detector.has_value() ? *overlay.detector : detector_;
  }

  /// Stages 2+3 plus the decision metrics, shared by Infer/InferBatch.
  InferenceResult FinishInfer(const StatusOr<math::Vec>& embedding,
                              GemOverlay& overlay) const;

  GemConfig config_;
  embed::BiSageEmbedder embedder_;
  detect::EnhancedHbosDetector detector_;
  bool trained_ = false;
};

}  // namespace gem::core

#endif  // GEM_CORE_GEM_H_
