#ifndef GEM_CORE_GEOFENCE_H_
#define GEM_CORE_GEOFENCE_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "rf/types.h"

namespace gem::core {

/// The in-out decision for one RF signal record.
enum class Decision { kInside, kOutside };

/// Result of processing one streaming record.
struct InferenceResult {
  Decision decision = Decision::kOutside;
  /// Algorithm-specific outlier score (higher = more likely outside).
  double score = 0.0;
  /// Whether the self-enhancement absorbed the record (GEM only).
  bool model_updated = false;
};

/// A complete geofencing system: trained once on in-premises records,
/// then fed the streaming records one at a time (stateful — GEM grows
/// its graph and detector online). Implemented by the generic
/// embedder+detector pipelines, SignatureHome, Inoa, and the eval
/// harness's GEM arm (eval::MakeSystem), which pairs a read-only Gem
/// with the GemOverlay its stream accumulates.
class GeofencingSystem {
 public:
  virtual ~GeofencingSystem() = default;

  /// Trains on the initial in-premises records.
  virtual Status Train(const std::vector<rf::ScanRecord>& inside_records) = 0;

  /// Processes one new record in stream order.
  virtual InferenceResult Infer(const rf::ScanRecord& record) = 0;

  /// Short display name used in result tables.
  virtual std::string name() const = 0;
};

}  // namespace gem::core

#endif  // GEM_CORE_GEOFENCE_H_
