#include "math/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "math/rng.h"

namespace gem::math {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 1.5);
  m.At(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m.At(0, 1), 7.0);
}

TEST(MatrixTest, RowRoundTrip) {
  Matrix m(2, 2);
  m.SetRow(0, {1, 2});
  m.SetRow(1, {3, 4});
  EXPECT_EQ(m.Row(1), (Vec{3, 4}));
}

TEST(MatrixTest, MatVec) {
  Matrix m(2, 3);
  m.SetRow(0, {1, 0, 2});
  m.SetRow(1, {0, 1, -1});
  const Vec y = m.MatVec({1, 2, 3});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(MatrixTest, AppendRowGrows) {
  Matrix m;
  m.AppendRow({1, 2, 3});
  m.AppendRow({4, 5, 6});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 4.0);
}

TEST(MatrixTest, FillGlorotWithinBounds) {
  Rng rng(1);
  Matrix m(8, 8);
  m.FillGlorot(rng);
  const double bound = std::sqrt(6.0 / 16.0);
  bool any_nonzero = false;
  for (double x : m.data()) {
    EXPECT_LE(std::abs(x), bound);
    if (x != 0.0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

}  // namespace
}  // namespace gem::math
