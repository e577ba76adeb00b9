#include "core/gem.h"

#include <utility>

#include "base/check.h"
#include "math/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gem::core {
namespace {

/// Decision counters for the three inference stages (Table III's
/// stage accounting). Resolved once; relaxed atomic adds afterwards.
obs::Counter& DecisionCounter(const char* decision) {
  return obs::MetricsRegistry::Get().GetCounter(
      "gem_decisions_total", {{"decision", decision}});
}

}  // namespace

Status GemConfig::Validate() const {
  Status status = bisage.Validate();
  if (!status.ok()) return status;
  return detector.Validate();
}

Gem::Gem(GemConfig config)
    : config_(config),
      embedder_(config.bisage, config.edge_weight),
      detector_(config.detector) {}

Gem::Gem(FromPartsTag, GemConfig config, embed::BiSageEmbedder embedder,
         detect::EnhancedHbosDetector detector)
    : config_(std::move(config)),
      embedder_(std::move(embedder)),
      detector_(std::move(detector)),
      trained_(true) {}

StatusOr<Gem> Gem::FromParts(GemConfig config, embed::BiSageEmbedder embedder,
                             detect::EnhancedHbosDetector detector) {
  const Status config_status = config.Validate();
  if (!config_status.ok()) return config_status;
  if (!embedder.model().trained()) {
    return Status::FailedPrecondition(
        "gem parts: embedder model is not trained");
  }
  return Gem(FromPartsTag{}, std::move(config), std::move(embedder),
             std::move(detector));
}

Status Gem::Train(const std::vector<rf::ScanRecord>& inside_records) {
  GEM_TRACE_SPAN("gem.train");
  // The embedder holds training records once it has seen any: after a
  // successful Train, a restore, or a Train that failed past the graph
  // build. Training again would append them a second time.
  if (embedder_.num_train() > 0) {
    return Status::FailedPrecondition(
        "gem was already trained; train a fresh Gem instead");
  }
  const Status config_status = config_.Validate();
  if (!config_status.ok()) return config_status;
  static obs::Counter& train_records =
      obs::MetricsRegistry::Get().GetCounter("gem_train_records_total");
  train_records.Increment(inside_records.size());
  // Which SIMD backend this process dispatched to (scalar or avx2) —
  // surfaced as a labeled flag gauge so perf numbers scraped off a
  // fleet are attributable to the kernel family that produced them.
  static obs::Gauge& kernel_backend =
      obs::MetricsRegistry::Get().GetGauge(
          "gem_kernel_backend_active",
          {{"backend", math::kernels::BackendName(
                           math::kernels::ActiveBackend())}});
  kernel_backend.Set(1.0);

  Status status;
  {
    GEM_TRACE_SPAN("gem.train.embedder_fit");
    status = embedder_.Fit(inside_records);
  }
  if (!status.ok()) return status;

  std::vector<math::Vec> embeddings;
  embeddings.reserve(inside_records.size());
  {
    GEM_TRACE_SPAN("gem.train.embed_train_set");
    for (int i = 0; i < embedder_.num_train(); ++i) {
      embeddings.push_back(embedder_.TrainEmbedding(i));
    }
  }
  {
    GEM_TRACE_SPAN("gem.train.detector_fit");
    status = detector_.Fit(embeddings);
  }
  if (!status.ok()) return status;
  trained_ = true;
  return Status::Ok();
}

// ----- Read side ----------------------------------------------------

StatusOr<math::Vec> Gem::Observe(const rf::ScanRecord& record,
                                 GemOverlay& overlay) const {
  if (!trained_) return Status::FailedPrecondition("gem is not trained");
  GEM_TRACE_SPAN("gem.embed");
  return embedder_.EmbedNew(record, overlay.embedder);
}

InferenceResult Gem::Detect(const math::Vec& embedding,
                            const GemOverlay& overlay) const {
  GEM_CHECK(trained_);
  GEM_TRACE_SPAN("gem.detect");
  static obs::Counter& inside_count = DecisionCounter("inside");
  static obs::Counter& outside_count = DecisionCounter("outside");
  const detect::EnhancedHbosDetector& detector = EffectiveDetector(overlay);
  InferenceResult result;
  // Report the min-max normalized score (monotone in S_T but free of
  // the softmax saturation plateau, so ROC sweeps retain resolution);
  // the decision is Equation (11) at the detector's calibrated tau_u.
  result.score = detector.NormalizedScore(embedding);
  result.decision = detector.IsOutlier(embedding) ? Decision::kOutside
                                                  : Decision::kInside;
  (result.decision == Decision::kInside ? inside_count : outside_count)
      .Increment();
  return result;
}

StatusOr<bool> Gem::Update(const math::Vec& embedding,
                           GemOverlay& overlay) const {
  if (!trained_) return Status::FailedPrecondition("gem is not trained");
  GEM_TRACE_SPAN("gem.update");
  static obs::Counter& offered =
      obs::MetricsRegistry::Get().GetCounter("gem_update_offered_total");
  offered.Increment();
  // Clone-on-first-offer: for a view-backed base this copies matrix
  // headers sharing the mapped pages; the clone privatizes them only
  // when Add() actually fires (HistogramModel self-materializes).
  if (!overlay.detector.has_value()) overlay.detector = detector_;
  StatusOr<bool> absorbed = overlay.detector->MaybeUpdate(embedding);
  if (absorbed.ok() && absorbed.value()) ++overlay.absorbed;
  return absorbed;
}

InferenceResult Gem::FinishInfer(const StatusOr<math::Vec>& embedding,
                                 GemOverlay& overlay) const {
  static obs::Counter& infer_count =
      obs::MetricsRegistry::Get().GetCounter("gem_infer_total");
  static obs::Counter& no_common_mac =
      obs::MetricsRegistry::Get().GetCounter("gem_no_common_mac_total");
  static obs::Counter& outside_count = DecisionCounter("outside");
  infer_count.Increment();

  if (!embedding.ok()) {
    // No MAC in common with anything seen: alert outright.
    no_common_mac.Increment();
    outside_count.Increment();
    InferenceResult result;
    result.decision = Decision::kOutside;
    result.score = 1.0;
    return result;
  }
  InferenceResult result = Detect(*embedding, overlay);
  if (config_.online_update && result.decision == Decision::kInside) {
    const StatusOr<bool> updated = Update(*embedding, overlay);
    result.model_updated = updated.ok() && updated.value();
  }
  return result;
}

InferenceResult Gem::Infer(const rf::ScanRecord& record,
                           GemOverlay& overlay) const {
  GEM_TRACE_SPAN("gem.infer");
  GEM_CHECK(trained_);
  return FinishInfer(Observe(record, overlay), overlay);
}

std::vector<InferenceResult> Gem::InferBatch(
    const std::vector<rf::ScanRecord>& records, GemOverlay& overlay) const {
  GEM_TRACE_SPAN("gem.infer_batch");
  GEM_CHECK(trained_);
  // Embeddings are computed in parallel; detection + self-enhancement
  // then run serially in input order, so the detector state evolves
  // exactly as it would under the equivalent sequence of Infer calls
  // (embeddings do not depend on detector state).
  std::vector<StatusOr<math::Vec>> embeddings;
  {
    GEM_TRACE_SPAN("gem.embed_batch");
    embeddings = embedder_.EmbedNewBatch(records, overlay.embedder);
  }
  std::vector<InferenceResult> results;
  results.reserve(embeddings.size());
  for (const StatusOr<math::Vec>& embedding : embeddings) {
    results.push_back(FinishInfer(embedding, overlay));
  }
  return results;
}

StatusOr<Gem> Gem::Compacted(const GemOverlay& overlay) const {
  GEM_TRACE_SPAN("gem.compact");
  if (!trained_) return Status::FailedPrecondition("gem is not trained");
  const graph::BipartiteGraph& base = embedder_.graph();
  const graph::GraphDelta& delta = overlay.embedder.graph;
  if (!delta.empty() && delta.base_nodes() != base.num_nodes()) {
    return Status::FailedPrecondition(
        "gem compact: overlay was built over a different base graph");
  }

  // Merged graph: base rows (touched ones replaced by their merged
  // copy), then the delta's appended nodes — exactly the structure a
  // mutable base would have after the same AddRecord sequence.
  std::vector<graph::NodeType> types;
  std::vector<std::vector<graph::Neighbor>> adjacency;
  types.reserve(base.num_nodes() + delta.num_new_nodes());
  adjacency.reserve(base.num_nodes() + delta.num_new_nodes());
  for (graph::NodeId id = 0; id < base.num_nodes(); ++id) {
    types.push_back(base.type(id));
    const auto touched = delta.touched().find(id);
    adjacency.push_back(touched != delta.touched().end()
                            ? touched->second
                            : base.neighbors(id));
  }
  for (size_t i = 0; i < delta.new_types().size(); ++i) {
    types.push_back(delta.new_types()[i]);
    adjacency.push_back(delta.new_adjacency()[i]);
  }
  std::vector<std::pair<std::string, graph::NodeId>> macs(
      base.mac_index().begin(), base.mac_index().end());
  for (const auto& [mac, id] : delta.new_macs()) macs.emplace_back(mac, id);

  StatusOr<graph::BipartiteGraph> merged = graph::BipartiteGraph::FromParts(
      config_.edge_weight, std::move(types), std::move(adjacency),
      std::move(macs));
  if (!merged.ok()) return merged.status();

  // Merged trained state (base tables + delta rows, init stream
  // advanced), owning every byte so it can outlive a mapped base's
  // backing.
  embed::BiSage::TrainedState state =
      embedder_.model().ExportTrained(overlay.embedder.tables);

  embed::BiSageEmbedder embedder(config_.bisage, config_.edge_weight);
  const Status restored =
      embedder.RestoreFitted(std::move(merged).value(),
                             embedder_.train_nodes(), std::move(state));
  if (!restored.ok()) return restored;

  detect::EnhancedHbosDetector detector = EffectiveDetector(overlay);
  detector.Materialize();
  return FromParts(config_, std::move(embedder), std::move(detector));
}

}  // namespace gem::core
