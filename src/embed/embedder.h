#ifndef GEM_EMBED_EMBEDDER_H_
#define GEM_EMBED_EMBEDDER_H_

#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "math/vec.h"
#include "rf/types.h"

namespace gem::embed {

/// Common interface of all record-embedding algorithms in GEM's
/// evaluation: BiSAGE, GraphSAGE, the autoencoder, MDS, and the raw
/// padded-matrix representation. A geofencing pipeline fits the
/// embedder on the initial in-premises records and then embeds the
/// streaming test records one by one.
class RecordEmbedder {
 public:
  virtual ~RecordEmbedder() = default;

  /// Trains on the initial in-premises records. Must be called exactly
  /// once, before any other method.
  virtual Status Fit(const std::vector<rf::ScanRecord>& train) = 0;

  /// Embedding of the i-th training record (0-based).
  virtual math::Vec TrainEmbedding(int i) const = 0;

  /// Number of training records supplied to Fit().
  virtual int num_train() const = 0;

  /// Embeds a new record (inductive / out-of-sample). Implementations
  /// may update internal state (BiSAGE adds the record to its overlay).
  /// Returns kNotFound when the record cannot be embedded at all —
  /// e.g. it shares no MAC with anything seen before — which GEM
  /// treats as an outright outlier (paper footnote 3), and
  /// kFailedPrecondition when called before a successful Fit().
  virtual StatusOr<math::Vec> EmbedNew(const rf::ScanRecord& record) = 0;

  /// Embedding dimensionality.
  virtual int dimension() const = 0;
};

}  // namespace gem::embed

#endif  // GEM_EMBED_EMBEDDER_H_
