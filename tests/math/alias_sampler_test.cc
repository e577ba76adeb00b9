#include "math/alias_sampler.h"

#include <gtest/gtest.h>

#include <numeric>

namespace gem::math {
namespace {

/// Draws n samples and checks empirical frequencies against the
/// normalized weights within a tolerance.
void CheckFrequencies(const Vec& weights, int n_draws, double tol) {
  AliasSampler sampler(weights);
  Rng rng(123);
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < n_draws; ++i) ++counts[sampler.Sample(rng)];
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / total;
    const double observed = static_cast<double>(counts[i]) / n_draws;
    EXPECT_NEAR(observed, expected, tol) << "index " << i;
  }
}

TEST(AliasSamplerTest, UniformWeights) {
  CheckFrequencies({1, 1, 1, 1}, 100000, 0.01);
}

TEST(AliasSamplerTest, SkewedWeights) {
  CheckFrequencies({10, 1, 1}, 100000, 0.01);
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  AliasSampler sampler({0.0, 1.0, 0.0});
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler.Sample(rng), 1);
}

TEST(AliasSamplerTest, SingleElement) {
  AliasSampler sampler({3.5});
  Rng rng(1);
  EXPECT_EQ(sampler.Sample(rng), 0);
}

TEST(AliasSamplerTest, LargeSupport) {
  Vec weights(1000);
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = static_cast<double>(i % 7) + 1.0;
  }
  CheckFrequencies(weights, 500000, 0.003);
}

}  // namespace
}  // namespace gem::math
