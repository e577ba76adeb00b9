#ifndef GEM_MATH_ALIAS_SAMPLER_H_
#define GEM_MATH_ALIAS_SAMPLER_H_

#include <vector>

#include "math/rng.h"
#include "math/vec.h"

namespace gem::math {

/// Walker's alias method: O(n) construction, O(1) sampling from a fixed
/// discrete distribution. Used for edge-weight-proportional neighbor
/// sampling and the degree^{3/4} negative sampler.
class AliasSampler {
 public:
  AliasSampler() = default;

  /// Builds the tables from non-negative weights (need not be
  /// normalized). At least one weight must be positive.
  explicit AliasSampler(const Vec& weights);

  /// Draws an index in [0, size()) with probability proportional to its
  /// weight.
  int Sample(Rng& rng) const;

  int size() const { return static_cast<int>(prob_.size()); }
  bool empty() const { return prob_.empty(); }

 private:
  std::vector<double> prob_;
  std::vector<int> alias_;
};

}  // namespace gem::math

#endif  // GEM_MATH_ALIAS_SAMPLER_H_
