#include "math/stats.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"

namespace gem::math {

double Mean(const Vec& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double StdDev(const Vec& values) {
  const size_t n = values.size();
  if (n < 2) return 0.0;
  const double mean = Mean(values);
  double ss = 0.0;
  for (double v : values) {
    const double d = v - mean;
    ss += d * d;
  }
  return std::sqrt(ss / static_cast<double>(n - 1));
}

double Min(const Vec& values) {
  GEM_CHECK(!values.empty());
  return *std::min_element(values.begin(), values.end());
}

double Max(const Vec& values) {
  GEM_CHECK(!values.empty());
  return *std::max_element(values.begin(), values.end());
}

double Percentile(const Vec& values, double p) {
  GEM_CHECK(!values.empty());
  GEM_CHECK(p >= 0.0 && p <= 100.0);
  Vec sorted = values;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary Summarize(const Vec& values) {
  GEM_CHECK(!values.empty());
  return Summary{Mean(values), Min(values), Max(values)};
}

}  // namespace gem::math
