#include "math/vec.h"

#include <gtest/gtest.h>

#include <cmath>

namespace gem::math {
namespace {

TEST(VecTest, DotBasic) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Dot({}, {}), 0.0);
}

TEST(VecTest, Norm2) {
  EXPECT_DOUBLE_EQ(Norm2({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Norm2({0, 0, 0}), 0.0);
}

TEST(VecTest, Distances) {
  EXPECT_DOUBLE_EQ(SquaredDistance({1, 1}, {4, 5}), 25.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {4, 5}), 5.0);
  EXPECT_DOUBLE_EQ(Distance({2, 2}, {2, 2}), 0.0);
}

TEST(VecTest, CosineDistanceIdenticalIsZero) {
  EXPECT_NEAR(CosineDistance({1, 2, 3}, {2, 4, 6}), 0.0, 1e-12);
}

TEST(VecTest, CosineDistanceOrthogonalIsOne) {
  EXPECT_NEAR(CosineDistance({1, 0}, {0, 1}), 1.0, 1e-12);
}

TEST(VecTest, CosineDistanceOppositeIsTwo) {
  EXPECT_NEAR(CosineDistance({1, 0}, {-1, 0}), 2.0, 1e-12);
}

TEST(VecTest, CosineDistanceZeroVectorIsOne) {
  EXPECT_DOUBLE_EQ(CosineDistance({0, 0}, {1, 1}), 1.0);
}

TEST(VecTest, AddScaled) {
  Vec a{1, 2};
  AddScaled(a, {10, 20}, 0.5);
  EXPECT_DOUBLE_EQ(a[0], 6.0);
  EXPECT_DOUBLE_EQ(a[1], 12.0);
}

TEST(VecTest, NormalizeL2) {
  Vec a{3, 4};
  NormalizeL2(a);
  EXPECT_NEAR(Norm2(a), 1.0, 1e-12);
  EXPECT_NEAR(a[0], 0.6, 1e-12);

  Vec zero{0, 0};
  NormalizeL2(zero);  // must not divide by zero
  EXPECT_DOUBLE_EQ(zero[0], 0.0);
}

TEST(VecTest, Concat) {
  const Vec c = Concat({1, 2}, {3});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c[2], 3.0);
}

}  // namespace
}  // namespace gem::math
