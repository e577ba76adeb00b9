#ifndef GEM_EVAL_EVALUATE_H_
#define GEM_EVAL_EVALUATE_H_

#include <vector>

#include "base/statusor.h"
#include "core/geofence.h"
#include "math/metrics.h"
#include "math/stats.h"
#include "rf/dataset.h"

namespace gem::eval {

/// Outcome of streaming one dataset's test records through a system.
struct EvalResult {
  math::InOutMetrics metrics;
  /// Per-record outlier scores + ground truth, for ROC analysis.
  math::Vec scores;
  std::vector<bool> is_outside;
  /// Per-record decisions in stream order, for detection-latency
  /// analysis (how many records after a ground-truth transition until
  /// the decision follows).
  std::vector<bool> predicted_inside;
  /// Self-enhancement absorption count.
  int updates = 0;
  double train_seconds = 0.0;
  double infer_seconds = 0.0;
};

/// Trains `system` on data.train and streams data.test through it in
/// order. The system must be freshly constructed (stateful online
/// updates). Train failures surface as a Status.
StatusOr<EvalResult> Evaluate(core::GeofencingSystem& system,
                              const rf::Dataset& data);

/// mean (min, max) across users/repeats for the six Table I metrics.
struct AggregateMetrics {
  math::Summary p_in, r_in, f_in, p_out, r_out, f_out;
};

/// Aggregates per-run metrics; runs must be non-empty.
AggregateMetrics Aggregate(const std::vector<math::InOutMetrics>& runs);

}  // namespace gem::eval

#endif  // GEM_EVAL_EVALUATE_H_
