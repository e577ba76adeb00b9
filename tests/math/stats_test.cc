#include "math/stats.h"

#include <gtest/gtest.h>

namespace gem::math {
namespace {

TEST(StatsTest, MeanBasic) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(StatsTest, StdDevSample) {
  // Sample stddev of {2,4,4,4,5,5,7,9} with n-1 denominator.
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.13809, 1e-4);
  EXPECT_DOUBLE_EQ(StdDev({5}), 0.0);
}

TEST(StatsTest, MinMax) {
  EXPECT_DOUBLE_EQ(Min({3, -1, 2}), -1.0);
  EXPECT_DOUBLE_EQ(Max({3, -1, 2}), 3.0);
}

TEST(StatsTest, PercentileEndpoints) {
  const Vec v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
}

TEST(StatsTest, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 25), 2.5);
}

TEST(StatsTest, Summarize) {
  const Summary s = Summarize({1, 2, 6});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
}

}  // namespace
}  // namespace gem::math
