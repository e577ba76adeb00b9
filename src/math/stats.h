#ifndef GEM_MATH_STATS_H_
#define GEM_MATH_STATS_H_

#include <vector>

#include "math/vec.h"

namespace gem::math {

/// Arithmetic mean; 0 for an empty input.
double Mean(const Vec& values);

/// Sample standard deviation (n-1 denominator); 0 for n < 2.
double StdDev(const Vec& values);

/// Minimum; values must be non-empty.
double Min(const Vec& values);

/// Maximum; values must be non-empty.
double Max(const Vec& values);

/// Linear-interpolated percentile, p in [0, 100]; values must be
/// non-empty (input copied and sorted internally).
double Percentile(const Vec& values, double p);

/// Summary used for mean (min, max) table cells.
struct Summary {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Computes mean/min/max of values; values must be non-empty.
Summary Summarize(const Vec& values);

}  // namespace gem::math

#endif  // GEM_MATH_STATS_H_
