#include "math/alias_sampler.h"

#include "base/check.h"

namespace gem::math {

AliasSampler::AliasSampler(const Vec& weights) {
  const int n = static_cast<int>(weights.size());
  GEM_CHECK(n > 0);
  double total = 0.0;
  for (double w : weights) {
    GEM_CHECK(w >= 0.0);
    total += w;
  }
  GEM_CHECK_MSG(total > 0.0, "all weights are zero");

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  // Scaled probabilities; average is 1.
  std::vector<double> scaled(n);
  for (int i = 0; i < n; ++i) scaled[i] = weights[i] * n / total;

  std::vector<int> small, large;
  small.reserve(n);
  large.reserve(n);
  for (int i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const int s = small.back();
    small.pop_back();
    const int l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (int i : large) prob_[i] = 1.0;
  for (int i : small) prob_[i] = 1.0;  // numerical leftovers
}

int AliasSampler::Sample(Rng& rng) const {
  GEM_DCHECK(!prob_.empty());
  const int i = rng.UniformInt(size());
  return rng.UniformUnit() < prob_[i] ? i : alias_[i];
}

}  // namespace gem::math
