#include "math/kernels.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/check.h"

// The AVX2+FMA kernels are compiled with per-function target attributes
// so the translation unit itself needs no -mavx2 (the binary still runs
// on plain SSE2 hardware; dispatch just resolves to scalar there).
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define GEM_KERNELS_HAVE_AVX2 1
#include <immintrin.h>
#else
#define GEM_KERNELS_HAVE_AVX2 0
#endif

namespace gem::math::kernels {
namespace {

// ---------------------------------------------------------------------------
// Scalar backend. These loops are the seed's original numerics:
// strictly sequential left-to-right accumulation, separate multiply and
// add roundings. GEM_KERNELS=scalar therefore reproduces pre-kernel
// results bit-for-bit.
// ---------------------------------------------------------------------------

double DotScalar(const double* a, const double* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double SquaredDistanceScalar(const double* a, const double* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

void AddScaledScalar(double* a, const double* b, double scale, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] += scale * b[i];
}

void ScaleScalar(double* a, double scale, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] *= scale;
}

void WeightedSumScalar(double* out, const double* const* inputs,
                       const double* coeffs, size_t k, size_t n) {
  if (n == 0) return;  // out may be null; memset is declared nonnull
  std::memset(out, 0, n * sizeof(double));
  for (size_t i = 0; i < k; ++i) {
    const double c = coeffs[i];
    const double* in = inputs[i];
    for (size_t j = 0; j < n; ++j) out[j] += c * in[j];
  }
}

void MatVecScalar(const double* m, int rows, int cols, const double* x,
                  double* y) {
  for (int r = 0; r < rows; ++r) {
    y[r] = DotScalar(m + static_cast<size_t>(r) * cols, x, cols);
  }
}

void MatTVecScalar(const double* m, int rows, int cols, const double* x,
                   double* y) {
  for (int r = 0; r < rows; ++r) {
    const double* row = m + static_cast<size_t>(r) * cols;
    const double xr = x[r];
    for (int c = 0; c < cols; ++c) y[c] += row[c] * xr;
  }
}

void ReluScalar(double* out, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] > 0.0 ? x[i] : 0.0;
}

void ReluBackwardScalar(double* gx, const double* x, const double* g,
                        size_t n) {
  for (size_t i = 0; i < n; ++i) gx[i] = x[i] > 0.0 ? gx[i] + g[i] : gx[i];
}

void RankKUpdateScalar(double* m, int rows, int cols, const double* const* a,
                       const double* const* b, size_t k) {
  // An 8-column block of a row stays in registers across all k terms
  // (unrolled, or GCC keeps it on the stack); each term is
  // AddScaledScalar's separately rounded multiply and add. Plain
  // add_scaled sweeps, run after FlatTape's backward pass when g and x
  // have left the cache, train ~4% slower than updating dW row by row
  // during the pass.
  constexpr int kBlock = 8;
  for (int r = 0; r < rows; ++r) {
    double* row = m + static_cast<size_t>(r) * cols;
    int c = 0;
    for (; c + kBlock <= cols; c += kBlock) {
      double sum[kBlock];
#pragma GCC unroll 8
      for (int i = 0; i < kBlock; ++i) sum[i] = row[c + i];
      for (size_t j = 0; j < k; ++j) {
        const double scale = a[j][r];
#pragma GCC unroll 8
        for (int i = 0; i < kBlock; ++i) sum[i] += scale * b[j][c + i];
      }
#pragma GCC unroll 8
      for (int i = 0; i < kBlock; ++i) row[c + i] = sum[i];
    }
    for (; c < cols; ++c) {
      double sum = row[c];
      for (size_t j = 0; j < k; ++j) sum += a[j][r] * b[j][c];
      row[c] = sum;
    }
  }
}

constexpr Ops kScalarOps = {
    DotScalar,        SquaredDistanceScalar, AddScaledScalar, ScaleScalar,
    WeightedSumScalar, MatVecScalar,         MatTVecScalar,   ReluScalar,
    ReluBackwardScalar, RankKUpdateScalar,
};

// ---------------------------------------------------------------------------
// AVX2+FMA backend. Reductions use a FIXED shape — two 4-lane
// accumulators, folded acc0+acc1, then lanes as (l0+l1)+(l2+l3), then
// the sequential scalar tail — so a given (backend, n) always sums in
// the same order: deterministic run-to-run, but a different order (and
// single-rounding FMA) vs. the scalar backend. Every scalar tail is an
// explicit std::fma, so its rounding holds at any optimization level,
// not only where the compiler contracts a * b + c. Unaligned loads
// throughout: callers owe no alignment.
// ---------------------------------------------------------------------------

#if GEM_KERNELS_HAVE_AVX2

__attribute__((target("avx2,fma"))) inline double HSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);   // l0 l1
  const __m128d hi = _mm256_extractf128_pd(v, 1); // l2 l3
  const double l0 = _mm_cvtsd_f64(lo);
  const double l1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
  const double l2 = _mm_cvtsd_f64(hi);
  const double l3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
  return (l0 + l1) + (l2 + l3);
}

// Dots R rows (row k at m + k * stride) with one x in a single sweep,
// so the rows share each load of x. Every row has the same fixed shape
// whatever R is: two accumulators over 8-blocks, a 4-block into the
// first, HSum of their sum, then the sequential tail. So out[k] has the
// bits of the R = 1 case, which is DotAvx2. The loops over R (R <= 4)
// are unrolled so lo and hi live in registers; without the pragma GCC
// keeps them on the stack.
template <int R>
__attribute__((target("avx2,fma"))) inline void DotRowsAvx2(
    const double* m, size_t stride, const double* x, size_t n, double* out) {
  __m256d lo[R];
  __m256d hi[R];
#pragma GCC unroll 4
  for (int k = 0; k < R; ++k) lo[k] = hi[k] = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d xl = _mm256_loadu_pd(x + i);
    const __m256d xh = _mm256_loadu_pd(x + i + 4);
#pragma GCC unroll 4
    for (int k = 0; k < R; ++k) {
      const double* row = m + k * stride;
      lo[k] = _mm256_fmadd_pd(_mm256_loadu_pd(row + i), xl, lo[k]);
      hi[k] = _mm256_fmadd_pd(_mm256_loadu_pd(row + i + 4), xh, hi[k]);
    }
  }
  if (i + 4 <= n) {
    const __m256d xl = _mm256_loadu_pd(x + i);
#pragma GCC unroll 4
    for (int k = 0; k < R; ++k) {
      lo[k] = _mm256_fmadd_pd(_mm256_loadu_pd(m + k * stride + i), xl, lo[k]);
    }
    i += 4;
  }
#pragma GCC unroll 4
  for (int k = 0; k < R; ++k) {
    const double* row = m + k * stride;
    double sum = HSum(_mm256_add_pd(lo[k], hi[k]));
    for (size_t j = i; j < n; ++j) sum = std::fma(row[j], x[j], sum);
    out[k] = sum;
  }
}

__attribute__((target("avx2,fma")))
double DotAvx2(const double* a, const double* b, size_t n) {
  double sum;
  DotRowsAvx2<1>(a, 0, b, n, &sum);
  return sum;
}

__attribute__((target("avx2,fma")))
double SquaredDistanceAvx2(const double* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 4),
                                     _mm256_loadu_pd(b + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  if (i + 4 <= n) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    i += 4;
  }
  double sum = HSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum = std::fma(d, d, sum);
  }
  return sum;
}

__attribute__((target("avx2,fma")))
void AddScaledAvx2(double* a, const double* b, double scale, size_t n) {
  const __m256d s = _mm256_set1_pd(scale);
  size_t i = 0;
  // Two independent 4-lane streams per iteration; element-wise, so
  // unrolling changes no result bits (unlike the reductions).
  for (; i + 8 <= n; i += 8) {
    const __m256d r0 = _mm256_fmadd_pd(s, _mm256_loadu_pd(b + i),
                                       _mm256_loadu_pd(a + i));
    const __m256d r1 = _mm256_fmadd_pd(s, _mm256_loadu_pd(b + i + 4),
                                       _mm256_loadu_pd(a + i + 4));
    _mm256_storeu_pd(a + i, r0);
    _mm256_storeu_pd(a + i + 4, r1);
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        a + i, _mm256_fmadd_pd(s, _mm256_loadu_pd(b + i),
                               _mm256_loadu_pd(a + i)));
  }
  for (; i < n; ++i) a[i] = std::fma(scale, b[i], a[i]);
}

__attribute__((target("avx2,fma")))
void ScaleAvx2(double* a, double scale, size_t n) {
  const __m256d s = _mm256_set1_pd(scale);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(a + i, _mm256_mul_pd(s, _mm256_loadu_pd(a + i)));
  }
  for (; i < n; ++i) a[i] *= scale;
}

__attribute__((target("avx2,fma")))
void WeightedSumAvx2(double* out, const double* const* inputs,
                     const double* coeffs, size_t k, size_t n) {
  // Block over the output so each 4-wide chunk stays in a register
  // across ALL k inputs (one store per chunk instead of k). Per output
  // element the accumulation order is still ascending k, matching the
  // scalar backend's order (only FMA rounding differs).
  size_t j = 0;
  // 8-wide blocks: two independent accumulator chains per k-sweep so
  // the FMA latency of one hides behind the other. Each output element
  // still accumulates in ascending k.
  for (; j + 8 <= n; j += 8) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (size_t i = 0; i < k; ++i) {
      const __m256d c = _mm256_set1_pd(coeffs[i]);
      acc0 = _mm256_fmadd_pd(c, _mm256_loadu_pd(inputs[i] + j), acc0);
      acc1 = _mm256_fmadd_pd(c, _mm256_loadu_pd(inputs[i] + j + 4), acc1);
    }
    _mm256_storeu_pd(out + j, acc0);
    _mm256_storeu_pd(out + j + 4, acc1);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (size_t i = 0; i < k; ++i) {
      acc = _mm256_fmadd_pd(_mm256_set1_pd(coeffs[i]),
                            _mm256_loadu_pd(inputs[i] + j), acc);
    }
    _mm256_storeu_pd(out + j, acc);
  }
  for (; j < n; ++j) {
    double sum = 0.0;
    for (size_t i = 0; i < k; ++i) {
      sum = std::fma(coeffs[i], inputs[i][j], sum);
    }
    out[j] = sum;
  }
}

__attribute__((target("avx2,fma")))
void MatVecAvx2(const double* m, int rows, int cols, const double* x,
                double* y) {
  // Four rows per sweep, then the leftover rows one at a time.
  const size_t n = static_cast<size_t>(cols);
  int r = 0;
  for (; r + 4 <= rows; r += 4) {
    DotRowsAvx2<4>(m + static_cast<size_t>(r) * n, n, x, n, y + r);
  }
  for (; r < rows; ++r) {
    DotRowsAvx2<1>(m + static_cast<size_t>(r) * n, n, x, n, y + r);
  }
}

__attribute__((target("avx2,fma")))
void MatTVecAvx2(const double* m, int rows, int cols, const double* x,
                 double* y) {
  // A block of output columns (16, then 4, then 1) stays in registers
  // across all rows, so y is loaded and stored once per block, not once
  // per row. Every y[c] still takes fma(x[r], m[r][c], y[c]) in
  // ascending r: the bits of add_scaled(y, row r, x[r]) over each row
  // in turn.
  const size_t stride = static_cast<size_t>(cols);
  int c = 0;
  for (; c + 16 <= cols; c += 16) {
    __m256d y0 = _mm256_loadu_pd(y + c);
    __m256d y1 = _mm256_loadu_pd(y + c + 4);
    __m256d y2 = _mm256_loadu_pd(y + c + 8);
    __m256d y3 = _mm256_loadu_pd(y + c + 12);
    for (int r = 0; r < rows; ++r) {
      const double* col = m + static_cast<size_t>(r) * stride + c;
      const __m256d xr = _mm256_set1_pd(x[r]);
      y0 = _mm256_fmadd_pd(xr, _mm256_loadu_pd(col), y0);
      y1 = _mm256_fmadd_pd(xr, _mm256_loadu_pd(col + 4), y1);
      y2 = _mm256_fmadd_pd(xr, _mm256_loadu_pd(col + 8), y2);
      y3 = _mm256_fmadd_pd(xr, _mm256_loadu_pd(col + 12), y3);
    }
    _mm256_storeu_pd(y + c, y0);
    _mm256_storeu_pd(y + c + 4, y1);
    _mm256_storeu_pd(y + c + 8, y2);
    _mm256_storeu_pd(y + c + 12, y3);
  }
  for (; c + 4 <= cols; c += 4) {
    __m256d y0 = _mm256_loadu_pd(y + c);
    for (int r = 0; r < rows; ++r) {
      const double* col = m + static_cast<size_t>(r) * stride + c;
      y0 = _mm256_fmadd_pd(_mm256_set1_pd(x[r]), _mm256_loadu_pd(col), y0);
    }
    _mm256_storeu_pd(y + c, y0);
  }
  for (; c < cols; ++c) {
    double yc = y[c];
    for (int r = 0; r < rows; ++r) {
      yc = std::fma(m[static_cast<size_t>(r) * stride + c], x[r], yc);
    }
    y[c] = yc;
  }
}

__attribute__((target("avx2,fma")))
void ReluAvx2(double* out, const double* x, size_t n) {
  // max returns its second operand when x is NaN or either zero, so
  // NaN and -0.0 give +0.0: the scalar loop's bits, with no branch.
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_max_pd(_mm256_loadu_pd(x + i), zero));
  }
  for (; i < n; ++i) out[i] = x[i] > 0.0 ? x[i] : 0.0;
}

__attribute__((target("avx2,fma")))
void ReluBackwardAvx2(double* gx, const double* x, const double* g,
                      size_t n) {
  // A blend, not gx + (g & mask): a lane where x <= 0 keeps gx's bits.
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d live =
        _mm256_cmp_pd(_mm256_loadu_pd(x + i), zero, _CMP_GT_OQ);
    const __m256d old = _mm256_loadu_pd(gx + i);
    const __m256d sum = _mm256_add_pd(old, _mm256_loadu_pd(g + i));
    _mm256_storeu_pd(gx + i, _mm256_blendv_pd(old, sum, live));
  }
  for (; i < n; ++i) gx[i] = x[i] > 0.0 ? gx[i] + g[i] : gx[i];
}

// Adds all k rank-1 terms into the R-row block of m at row r, columns
// [c, c + 4V), held in R * V registers, so m is loaded and stored once
// per block instead of once per term. Every element takes fma(a[j][r],
// b[j][c], m) in ascending j: AddScaledAvx2's operation and order.
template <int R, int V>
__attribute__((target("avx2,fma"))) inline void RankKBlockAvx2(
    double* m, size_t stride, const double* const* a, const double* const* b,
    size_t k, int r, int c) {
  __m256d acc[R][V];
#pragma GCC unroll 4
  for (int i = 0; i < R; ++i) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      acc[i][v] = _mm256_loadu_pd(m + (r + i) * stride + c + 4 * v);
    }
  }
  for (size_t j = 0; j < k; ++j) {
    __m256d bj[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) bj[v] = _mm256_loadu_pd(b[j] + c + 4 * v);
#pragma GCC unroll 4
    for (int i = 0; i < R; ++i) {
      const __m256d s = _mm256_broadcast_sd(a[j] + r + i);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        acc[i][v] = _mm256_fmadd_pd(s, bj[v], acc[i][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int i = 0; i < R; ++i) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      _mm256_storeu_pd(m + (r + i) * stride + c + 4 * v, acc[i][v]);
    }
  }
}

// Rows [r, r + R) of a rank-k update: 8-column blocks, then 4, then
// single columns.
template <int R>
__attribute__((target("avx2,fma"))) inline void RankKRowsAvx2(
    double* m, int cols, const double* const* a, const double* const* b,
    size_t k, int r) {
  const size_t stride = static_cast<size_t>(cols);
  int c = 0;
  for (; c + 8 <= cols; c += 8) {
    RankKBlockAvx2<R, 2>(m, stride, a, b, k, r, c);
  }
  for (; c + 4 <= cols; c += 4) {
    RankKBlockAvx2<R, 1>(m, stride, a, b, k, r, c);
  }
  for (; c < cols; ++c) {
    for (int i = 0; i < R; ++i) {
      double sum = m[(r + i) * stride + c];
      for (size_t j = 0; j < k; ++j) {
        sum = std::fma(a[j][r + i], b[j][c], sum);
      }
      m[(r + i) * stride + c] = sum;
    }
  }
}

__attribute__((target("avx2,fma")))
void RankKUpdateAvx2(double* m, int rows, int cols, const double* const* a,
                     const double* const* b, size_t k) {
  // 4 x 8 blocks: 8 accumulators, and per term two loads of b[j] and
  // four broadcasts of a[j] feed eight fmas.
  int r = 0;
  for (; r + 4 <= rows; r += 4) RankKRowsAvx2<4>(m, cols, a, b, k, r);
  for (; r < rows; ++r) RankKRowsAvx2<1>(m, cols, a, b, k, r);
}

constexpr Ops kAvx2Ops = {
    DotAvx2,        SquaredDistanceAvx2, AddScaledAvx2, ScaleAvx2,
    WeightedSumAvx2, MatVecAvx2,         MatTVecAvx2,   ReluAvx2,
    ReluBackwardAvx2, RankKUpdateAvx2,
};

#endif  // GEM_KERNELS_HAVE_AVX2

// ---------------------------------------------------------------------------
// Dispatch. Resolved exactly once at first use (thread-safe local
// static); GEM_KERNELS overrides the CPU probe, with a downgrade (and
// stderr warning) when avx2 is requested on hardware without it.
// ---------------------------------------------------------------------------

struct Dispatch {
  Backend backend;
  const Ops* ops;
};

Dispatch MakeDispatch(Backend backend) {
#if GEM_KERNELS_HAVE_AVX2
  if (backend == Backend::kAvx2) return {Backend::kAvx2, &kAvx2Ops};
#endif
  return {Backend::kScalar, &kScalarOps};
}

Dispatch Resolve() {
  const char* env = std::getenv("GEM_KERNELS");
  if (env != nullptr && *env != '\0') {
    if (std::strcmp(env, "scalar") == 0) {
      return MakeDispatch(Backend::kScalar);
    }
    if (std::strcmp(env, "avx2") == 0) {
      if (Avx2Available()) return MakeDispatch(Backend::kAvx2);
      std::fprintf(stderr,
                   "gem: GEM_KERNELS=avx2 but CPU lacks AVX2+FMA; "
                   "falling back to scalar kernels\n");
      return MakeDispatch(Backend::kScalar);
    }
    std::fprintf(stderr,
                 "gem: unknown GEM_KERNELS=\"%s\" (want scalar|avx2); "
                 "using CPU auto-detection\n",
                 env);
  }
  return MakeDispatch(Avx2Available() ? Backend::kAvx2 : Backend::kScalar);
}

Dispatch& ActiveDispatch() {
  static Dispatch dispatch = Resolve();
  return dispatch;
}

}  // namespace

const char* BackendName(Backend backend) {
  return backend == Backend::kAvx2 ? "avx2" : "scalar";
}

bool Avx2Available() {
#if GEM_KERNELS_HAVE_AVX2
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

Backend ActiveBackend() { return ActiveDispatch().backend; }

const Ops& Active() { return *ActiveDispatch().ops; }

const Ops& OpsFor(Backend backend) {
  if (backend == Backend::kAvx2) {
    GEM_CHECK(Avx2Available());
#if GEM_KERNELS_HAVE_AVX2
    return kAvx2Ops;
#endif
  }
  return kScalarOps;
}

Backend ForceBackendForTest(Backend backend) {
  const Backend previous = ActiveDispatch().backend;
  ActiveDispatch() = MakeDispatch(backend);
  return previous;
}

}  // namespace gem::math::kernels
