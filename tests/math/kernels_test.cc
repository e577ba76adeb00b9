// Edge cases and backend agreement for the dispatched SIMD kernels.
// Sizes deliberately straddle every SIMD boundary (0, 1, the 4-lane
// width, the 8-element unroll, and off-by-one around each), buffers are
// also fed in deliberately misaligned (the kernels promise unaligned
// loads work), and the scalar and AVX2 backends must agree to within
// floating-point reassociation noise on random inputs.

#include "math/kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "math/rng.h"

namespace gem::math::kernels {
namespace {

// Every length class the kernels can see: empty, single element,
// sub-width, exactly one vector, unroll boundaries, and large+odd.
constexpr size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                             15, 16, 17, 31, 32, 33, 100, 128, 129};

// |a-b| within reassociation/FMA drift of two summation orders. The
// bound is far looser than observed (a few ULPs) but far tighter than
// any behavioral difference.
void ExpectClose(double a, double b) {
  EXPECT_LE(std::abs(a - b), 1e-9 * std::max(1.0, std::abs(b)))
      << a << " vs " << b;
}

std::vector<double> RandomVec(Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-2.0, 2.0);
  return v;
}

class ScopedBackend {
 public:
  explicit ScopedBackend(Backend backend)
      : previous_(ForceBackendForTest(backend)) {}
  ~ScopedBackend() { ForceBackendForTest(previous_); }

 private:
  Backend previous_;
};

TEST(KernelsTest, BackendNamesMatchEnvValues) {
  EXPECT_STREQ("scalar", BackendName(Backend::kScalar));
  EXPECT_STREQ("avx2", BackendName(Backend::kAvx2));
}

TEST(KernelsTest, ForceBackendForTestRoundTrips) {
  const Backend original = ActiveBackend();
  const Backend previous = ForceBackendForTest(Backend::kScalar);
  EXPECT_EQ(previous, original);
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  EXPECT_EQ(Active().dot, OpsFor(Backend::kScalar).dot);
  ForceBackendForTest(original);
  EXPECT_EQ(ActiveBackend(), original);
}

TEST(KernelsTest, EmptyInputsAreWellDefined) {
  for (const Backend backend :
       {Backend::kScalar, Backend::kAvx2}) {
    if (backend == Backend::kAvx2 && !Avx2Available()) continue;
    const Ops& ops = OpsFor(backend);
    EXPECT_EQ(0.0, ops.dot(nullptr, nullptr, 0));
    EXPECT_EQ(0.0, ops.squared_distance(nullptr, nullptr, 0));
    ops.add_scaled(nullptr, nullptr, 2.0, 0);
    ops.scale(nullptr, 2.0, 0);
    ops.weighted_sum(nullptr, nullptr, nullptr, 0, 0);
    double y = 7.0;
    ops.matvec(nullptr, 0, 4, nullptr, &y);  // rows == 0: y untouched
    ops.mattvec(nullptr, 0, 0, nullptr, &y);
    ops.relu(nullptr, nullptr, 0);
    ops.relu_backward(nullptr, nullptr, nullptr, 0);
    ops.rank_k_update(nullptr, 0, 0, nullptr, nullptr, 0);
    EXPECT_EQ(7.0, y);
  }
}

TEST(KernelsTest, SingleElement) {
  for (const Backend backend :
       {Backend::kScalar, Backend::kAvx2}) {
    if (backend == Backend::kAvx2 && !Avx2Available()) continue;
    const Ops& ops = OpsFor(backend);
    const double a[] = {3.0};
    const double b[] = {-0.5};
    EXPECT_DOUBLE_EQ(-1.5, ops.dot(a, b, 1));
    EXPECT_DOUBLE_EQ(12.25, ops.squared_distance(a, b, 1));
    double out[] = {1.0};
    ops.add_scaled(out, b, 4.0, 1);
    EXPECT_DOUBLE_EQ(-1.0, out[0]);
    ops.scale(out, -2.0, 1);
    EXPECT_DOUBLE_EQ(2.0, out[0]);
  }
}

TEST(KernelsTest, DotMatchesReferenceAtEverySize) {
  Rng rng(11);
  for (const size_t n : kSizes) {
    const std::vector<double> a = RandomVec(rng, n);
    const std::vector<double> b = RandomVec(rng, n);
    double reference = 0.0;
    for (size_t i = 0; i < n; ++i) reference += a[i] * b[i];
    for (const Backend backend :
         {Backend::kScalar, Backend::kAvx2}) {
      if (backend == Backend::kAvx2 && !Avx2Available()) continue;
      ExpectClose(OpsFor(backend).dot(a.data(), b.data(), n), reference);
    }
    // Scalar is defined to BE the sequential reference, bit-for-bit.
    EXPECT_EQ(OpsFor(Backend::kScalar).dot(a.data(), b.data(), n),
              reference);
  }
}

TEST(KernelsTest, SquaredDistanceMatchesReferenceAtEverySize) {
  Rng rng(12);
  for (const size_t n : kSizes) {
    const std::vector<double> a = RandomVec(rng, n);
    const std::vector<double> b = RandomVec(rng, n);
    double reference = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = a[i] - b[i];
      reference += d * d;
    }
    for (const Backend backend :
         {Backend::kScalar, Backend::kAvx2}) {
      if (backend == Backend::kAvx2 && !Avx2Available()) continue;
      ExpectClose(OpsFor(backend).squared_distance(a.data(), b.data(), n),
                  reference);
    }
  }
}

TEST(KernelsTest, AddScaledAndScaleMatchReferenceAtEverySize) {
  Rng rng(13);
  for (const size_t n : kSizes) {
    const std::vector<double> base = RandomVec(rng, n);
    const std::vector<double> b = RandomVec(rng, n);
    for (const Backend backend :
         {Backend::kScalar, Backend::kAvx2}) {
      if (backend == Backend::kAvx2 && !Avx2Available()) continue;
      const Ops& ops = OpsFor(backend);
      std::vector<double> got = base;
      ops.add_scaled(got.data(), b.data(), 0.75, n);
      ops.scale(got.data(), -3.0, n);
      for (size_t i = 0; i < n; ++i) {
        // Element-wise ops have no reduction order: both backends must
        // match the reference exactly (FMA on the AVX2 path rounds
        // once, so allow 1-ULP-scale drift there).
        const double want = (base[i] + 0.75 * b[i]) * -3.0;
        ExpectClose(got[i], want);
      }
    }
  }
}

TEST(KernelsTest, WeightedSumAccumulatesInAscendingOrder) {
  Rng rng(14);
  for (const size_t n : kSizes) {
    for (const size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{8}}) {
      std::vector<std::vector<double>> inputs;
      std::vector<const double*> ptrs;
      for (size_t j = 0; j < k; ++j) {
        inputs.push_back(RandomVec(rng, n));
        ptrs.push_back(inputs.back().data());
      }
      const std::vector<double> coeffs = RandomVec(rng, k);
      // The documented semantics: overwrite out, ascending-k order.
      std::vector<double> reference(n, 0.0);
      for (size_t j = 0; j < k; ++j) {
        for (size_t i = 0; i < n; ++i) {
          reference[i] += coeffs[j] * inputs[j][i];
        }
      }
      for (const Backend backend :
           {Backend::kScalar, Backend::kAvx2}) {
        if (backend == Backend::kAvx2 && !Avx2Available()) continue;
        std::vector<double> got(n, 123.0);  // must be overwritten
        OpsFor(backend).weighted_sum(got.data(), ptrs.data(),
                                     coeffs.data(), k, n);
        for (size_t i = 0; i < n; ++i) ExpectClose(got[i], reference[i]);
        if (backend == Backend::kScalar) {
          EXPECT_EQ(got, reference);
        }
      }
    }
  }
}

TEST(KernelsTest, MatVecAndMatTVecMatchReference) {
  Rng rng(15);
  for (const int rows : {0, 1, 3, 16}) {
    for (const int cols : {0, 1, 5, 32, 33}) {
      const std::vector<double> m =
          RandomVec(rng, static_cast<size_t>(rows) * cols);
      const std::vector<double> x = RandomVec(rng, cols);
      const std::vector<double> xt = RandomVec(rng, rows);
      std::vector<double> y_ref(rows, 0.0);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) y_ref[r] += m[r * cols + c] * x[c];
      }
      std::vector<double> yt_ref(cols, 0.5);  // mattvec accumulates
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          yt_ref[c] += m[r * cols + c] * xt[r];
        }
      }
      for (const Backend backend :
           {Backend::kScalar, Backend::kAvx2}) {
        if (backend == Backend::kAvx2 && !Avx2Available()) continue;
        const Ops& ops = OpsFor(backend);
        std::vector<double> y(rows, -9.0);
        ops.matvec(m.data(), rows, cols, x.data(), y.data());
        for (int r = 0; r < rows; ++r) ExpectClose(y[r], y_ref[r]);
        std::vector<double> yt(cols, 0.5);
        ops.mattvec(m.data(), rows, cols, xt.data(), yt.data());
        for (int c = 0; c < cols; ++c) ExpectClose(yt[c], yt_ref[c]);
      }
    }
  }
}

// The blocked matvec/mattvec must keep each element's order: a matvec
// row is exactly dot(row, x), and mattvec is exactly add_scaled of each
// row in ascending row order. Shapes straddle the 4-row and 16/4-column
// blocks; the last case feeds pointers one double off alignment.
void ExpectBlockedKernelsKeepBits(const Ops& ops, int rows, int cols,
                                  const double* m, const double* x,
                                  const double* xt, double* y, double* yt) {
  SCOPED_TRACE(testing::Message() << rows << "x" << cols);
  ops.matvec(m, rows, cols, x, y);
  for (int r = 0; r < rows; ++r) {
    EXPECT_EQ(y[r], ops.dot(m + static_cast<size_t>(r) * cols, x,
                            static_cast<size_t>(cols)))
        << "row " << r;
  }
  std::vector<double> want(yt, yt + cols);
  for (int r = 0; r < rows; ++r) {
    ops.add_scaled(want.data(), m + static_cast<size_t>(r) * cols, xt[r],
                   static_cast<size_t>(cols));
  }
  ops.mattvec(m, rows, cols, xt, yt);
  for (int c = 0; c < cols; ++c) EXPECT_EQ(yt[c], want[c]) << "col " << c;
}

TEST(KernelsTest, MatVecRowsAreDotsAndMatTVecIsRowOrderAddScaled) {
  Rng rng(18);
  for (const Backend backend : {Backend::kScalar, Backend::kAvx2}) {
    if (backend == Backend::kAvx2 && !Avx2Available()) continue;
    SCOPED_TRACE(BackendName(backend));
    const Ops& ops = OpsFor(backend);
    for (const int rows : {0, 1, 3, 4, 5, 32, 33}) {
      for (const int cols : {0, 1, 3, 4, 5, 8, 16, 17, 32, 33, 64, 65}) {
        const std::vector<double> m =
            RandomVec(rng, static_cast<size_t>(rows) * cols);
        const std::vector<double> x = RandomVec(rng, cols);
        const std::vector<double> xt = RandomVec(rng, rows);
        std::vector<double> y(rows, -9.0);
        std::vector<double> yt = RandomVec(rng, cols);
        ExpectBlockedKernelsKeepBits(ops, rows, cols, m.data(), x.data(),
                                     xt.data(), y.data(), yt.data());
      }
    }
    constexpr int kRows = 33;
    constexpr int kCols = 65;
    AlignedVec m(kRows * kCols + 1), x(kCols + 1), xt(kRows + 1),
        y(kRows + 1), yt(kCols + 1);
    for (AlignedVec* v : {&m, &x, &xt, &yt}) {
      for (double& e : *v) e = rng.Uniform(-2.0, 2.0);
    }
    ASSERT_NE(reinterpret_cast<uintptr_t>(m.data() + 1) % 32, 0u);
    ExpectBlockedKernelsKeepBits(ops, kRows, kCols, m.data() + 1,
                                 x.data() + 1, xt.data() + 1, y.data() + 1,
                                 yt.data() + 1);
  }
}

// The rank-k update is k successive add_scaled sweeps over the rows,
// bit for bit: every element takes the same terms in the same order.
// Shapes straddle the 2-row and the 16-, 4- and 1-column blocks; m,
// every a[j] and every b[j] sit one double off alignment.
TEST(KernelsTest, RankKUpdateIsSuccessiveAddScaledSweeps) {
  Rng rng(19);
  for (const Backend backend : {Backend::kScalar, Backend::kAvx2}) {
    if (backend == Backend::kAvx2 && !Avx2Available()) continue;
    SCOPED_TRACE(BackendName(backend));
    const Ops& ops = OpsFor(backend);
    for (const int rows : {0, 1, 3, 4, 5, 16, 33}) {
      for (const int cols : {0, 1, 3, 4, 5, 8, 17, 32, 64, 65}) {
        for (const size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{7}}) {
          SCOPED_TRACE(testing::Message()
                       << rows << "x" << cols << " k=" << k);
          const size_t size = static_cast<size_t>(rows) * cols;
          AlignedVec got(size + 1);
          AlignedVec a_buf(k * rows + 1);
          AlignedVec b_buf(k * cols + 1);
          for (AlignedVec* v : {&got, &a_buf, &b_buf}) {
            for (double& e : *v) e = rng.Uniform(-2.0, 2.0);
          }
          ASSERT_NE(reinterpret_cast<uintptr_t>(got.data() + 1) % 32, 0u);
          std::vector<const double*> a(k);
          std::vector<const double*> b(k);
          for (size_t j = 0; j < k; ++j) {
            a[j] = a_buf.data() + 1 + j * rows;
            b[j] = b_buf.data() + 1 + j * cols;
          }
          AlignedVec want = got;
          for (size_t j = 0; j < k; ++j) {
            for (int r = 0; r < rows; ++r) {
              ops.add_scaled(want.data() + 1 + static_cast<size_t>(r) * cols,
                             b[j], a[j][r], static_cast<size_t>(cols));
            }
          }
          ops.rank_k_update(got.data() + 1, rows, cols, a.data(), b.data(),
                            k);
          for (size_t i = 0; i <= size; ++i) {
            EXPECT_EQ(got[i], want[i]) << "element " << i;
          }
        }
      }
    }
  }
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// ReLU operands: the values whose handling a branch-free kernel could
// get wrong (both zeros, NaN, both infinities, subnormals) half the
// time, random signs otherwise.
std::vector<double> ReluOperands(Rng& rng, size_t n) {
  const double specials[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      1e-310,
      -1e-310,
  };
  constexpr int kSpecials = sizeof(specials) / sizeof(specials[0]);
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.UniformInt(2) == 0 ? specials[rng.UniformInt(kSpecials)]
                               : rng.Uniform(-2.0, 2.0);
  }
  return v;
}

// relu and relu_backward give the bits of the loops they replaced, on
// both backends, compared as bit patterns (NaN never equals itself,
// and -0.0 == +0.0 would hide a sign). relu runs out of place and in
// place; relu_backward accumulates into a separate gx and into g
// itself.
TEST(KernelsTest, ReluKernelsKeepTheScalarLoopsBits) {
  Rng rng(20);
  for (const Backend backend : {Backend::kScalar, Backend::kAvx2}) {
    if (backend == Backend::kAvx2 && !Avx2Available()) continue;
    SCOPED_TRACE(BackendName(backend));
    const Ops& ops = OpsFor(backend);
    for (const size_t n : kSizes) {
      SCOPED_TRACE(n);
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<double> x = ReluOperands(rng, n);
        const std::vector<double> g = ReluOperands(rng, n);
        const std::vector<double> gx0 = ReluOperands(rng, n);

        std::vector<double> relu_want(n);
        std::vector<double> back_want = gx0;
        std::vector<double> self_want = g;
        for (size_t i = 0; i < n; ++i) {
          relu_want[i] = x[i] > 0.0 ? x[i] : 0.0;
          if (x[i] > 0.0) back_want[i] += g[i];
          if (x[i] > 0.0) self_want[i] += self_want[i];
        }

        std::vector<double> out(n, 123.0);
        ops.relu(out.data(), x.data(), n);
        std::vector<double> in_place = x;
        ops.relu(in_place.data(), in_place.data(), n);
        std::vector<double> gx = gx0;
        ops.relu_backward(gx.data(), x.data(), g.data(), n);
        std::vector<double> self = g;
        ops.relu_backward(self.data(), x.data(), self.data(), n);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(Bits(out[i]), Bits(relu_want[i])) << "relu x=" << x[i];
          EXPECT_EQ(Bits(in_place[i]), Bits(relu_want[i]))
              << "in-place relu x=" << x[i];
          EXPECT_EQ(Bits(gx[i]), Bits(back_want[i]))
              << "relu_backward x=" << x[i] << " g=" << g[i]
              << " gx=" << gx0[i];
          EXPECT_EQ(Bits(self[i]), Bits(self_want[i]))
              << "relu_backward into g, x=" << x[i] << " g=" << g[i];
        }
      }
    }
  }
}

TEST(KernelsTest, UnalignedBuffersWork) {
  // The kernels use unaligned loads; feed pointers offset one double
  // (8 bytes) off the allocator's 32-byte boundary to prove it.
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  Rng rng(16);
  constexpr size_t kN = 67;
  AlignedVec a_buf = [&] {
    AlignedVec v(kN + 1);
    for (double& x : v) x = rng.Uniform(-1.0, 1.0);
    return v;
  }();
  AlignedVec b_buf = a_buf;
  for (double& x : b_buf) x = rng.Uniform(-1.0, 1.0);
  const double* a = a_buf.data() + 1;
  const double* b = b_buf.data() + 1;
  ASSERT_NE(reinterpret_cast<uintptr_t>(a) % 32, 0u);

  const Ops& avx2 = OpsFor(Backend::kAvx2);
  const Ops& scalar = OpsFor(Backend::kScalar);
  ExpectClose(avx2.dot(a, b, kN), scalar.dot(a, b, kN));
  ExpectClose(avx2.squared_distance(a, b, kN),
              scalar.squared_distance(a, b, kN));
  AlignedVec out_a(kN + 1, 0.25), out_s(kN + 1, 0.25);
  avx2.add_scaled(out_a.data() + 1, b, 1.5, kN);
  scalar.add_scaled(out_s.data() + 1, b, 1.5, kN);
  for (size_t i = 0; i <= kN; ++i) ExpectClose(out_a[i], out_s[i]);
}

TEST(KernelsTest, ScalarAndAvx2AgreeOnRandomInputs) {
  // The blanket differential: both backends over many random draws of
  // awkward sizes. (End-to-end model agreement is covered separately by
  // kernels_differential_test.)
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  Rng rng(17);
  const Ops& avx2 = OpsFor(Backend::kAvx2);
  const Ops& scalar = OpsFor(Backend::kScalar);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(201));
    const std::vector<double> a = RandomVec(rng, n);
    const std::vector<double> b = RandomVec(rng, n);
    ExpectClose(avx2.dot(a.data(), b.data(), n),
                scalar.dot(a.data(), b.data(), n));
    ExpectClose(avx2.squared_distance(a.data(), b.data(), n),
                scalar.squared_distance(a.data(), b.data(), n));
    std::vector<double> out_a = a, out_s = a;
    avx2.add_scaled(out_a.data(), b.data(), -0.3, n);
    scalar.add_scaled(out_s.data(), b.data(), -0.3, n);
    for (size_t i = 0; i < n; ++i) ExpectClose(out_a[i], out_s[i]);
  }
}

TEST(KernelsTest, ScopedForceIsHonoredByActive) {
  {
    ScopedBackend forced(Backend::kScalar);
    EXPECT_EQ(Backend::kScalar, ActiveBackend());
    const double a[] = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(14.0, Active().dot(a, a, 3));
  }
  // Destructor restored whatever the process resolved at startup.
  EXPECT_EQ(ActiveBackend(), ActiveBackend());
}

}  // namespace
}  // namespace gem::math::kernels
