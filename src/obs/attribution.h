#ifndef GEM_OBS_ATTRIBUTION_H_
#define GEM_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/timeline.h"

namespace gem::obs {

/// Wall-clock cost of one stage (span name), summed over threads.
struct StageCost {
  std::string stage;
  uint64_t count = 0;
  /// Total time inside spans of this stage, children included.
  double inclusive_seconds = 0.0;
  /// Inclusive minus time spent in directly nested recorded spans —
  /// the stage's own cost. The sync stages' exclusive_seconds sum to
  /// the total instrumented time of all threads.
  double exclusive_seconds = 0.0;
};

/// Stage-cost rollup of a timeline snapshot: where did the wall time
/// go, per stage? Sync spans are attributed by a nesting sweep per
/// thread (RAII spans on one thread are properly nested in time, so
/// exclusive = inclusive - direct children).
/// Async spans (queue waits) cannot nest and are reported with
/// exclusive == inclusive; they measure waiting, not execution, so
/// they deliberately OVERLAP the executing stages' time rather than
/// subtracting from it.
struct AttributionReport {
  /// Aggregated over threads, sorted by exclusive_seconds descending.
  std::vector<StageCost> by_stage;
};

/// Builds the rollup from Snapshot() output, keeping only spans whose
/// start lies in [window_begin_ns, window_end_ns) — benches use the
/// window to attribute each run (thread count) separately out of one
/// recording.
AttributionReport BuildAttribution(
    const std::vector<TimelineEventView>& events,
    int64_t window_begin_ns = std::numeric_limits<int64_t>::min(),
    int64_t window_end_ns = std::numeric_limits<int64_t>::max());

/// Human-readable per-stage table (stage, count, inclusive,
/// exclusive, exclusive share).
std::string AttributionTable(const AttributionReport& report);

/// The aggregated rows as a JSON array —
/// [{"stage":...,"count":...,"inclusive_seconds":...,
///   "exclusive_seconds":...}, ...] — embedded by the bench binaries
/// into BENCH_train.json / BENCH_serve.json result entries.
std::string AttributionJson(const AttributionReport& report);

}  // namespace gem::obs

#endif  // GEM_OBS_ATTRIBUTION_H_
