#ifndef GEM_MATH_KERNELS_H_
#define GEM_MATH_KERNELS_H_

#include <cstddef>
#include <new>
#include <vector>

namespace gem::math::kernels {

/// Which implementation family the process dispatches to. Selected
/// exactly once, at first use: AVX2+FMA when the CPU supports both,
/// overridable with GEM_KERNELS=scalar|avx2 (differential testing,
/// reproducing scalar-seed numerics). All kernels use a FIXED
/// lane-reduction order, so for a given backend results are identical
/// run-to-run and machine-to-machine; across backends results may
/// differ by summation order / FMA rounding (see DESIGN.md §10 for the
/// determinism-vs-bit-exactness contract).
enum class Backend { kScalar, kAvx2 };

/// "scalar" / "avx2" (matches the GEM_KERNELS values and the golden
/// fixture suffixes).
const char* BackendName(Backend backend);

/// True when this CPU can run the AVX2+FMA kernels.
bool Avx2Available();

/// The backend the process-wide dispatch resolved to.
Backend ActiveBackend();

/// Flat table of kernel entry points; one instance per backend. All
/// pointers may alias-free overlap only as documented per kernel; n is
/// the element count. None of the kernels require aligned pointers
/// (unaligned loads are used throughout); 32-byte alignment of the
/// underlying buffers is a throughput nicety, not a contract.
struct Ops {
  /// sum_i a[i] * b[i]; 0.0 when n == 0.
  double (*dot)(const double* a, const double* b, size_t n);
  /// sum_i (a[i] - b[i])^2.
  double (*squared_distance)(const double* a, const double* b, size_t n);
  /// a[i] += scale * b[i].
  void (*add_scaled)(double* a, const double* b, double scale, size_t n);
  /// a[i] *= scale.
  void (*scale)(double* a, double scale, size_t n);
  /// out[j] = sum_k coeffs[k] * inputs[k][j], accumulated in ascending
  /// k for every j (the aggregation order of Equations (3)/(5)).
  /// Overwrites out; inputs must not alias out.
  void (*weighted_sum)(double* out, const double* const* inputs,
                       const double* coeffs, size_t k, size_t n);
  /// y[r] = dot(m + r*cols, x) for r in [0, rows) — row-major
  /// matrix-vector product. y must not alias m or x.
  void (*matvec)(const double* m, int rows, int cols, const double* x,
                 double* y);
  /// y[c] += sum_r m[r*cols + c] * x[r] — transposed product,
  /// ACCUMULATING into y. y must not alias m or x.
  void (*mattvec)(const double* m, int rows, int cols, const double* x,
                  double* y);
  /// out[i] = x[i] > 0 ? x[i] : +0.0, so NaN and -0.0 give +0.0. out
  /// may be x itself; otherwise the two must not overlap.
  void (*relu)(double* out, const double* x, size_t n);
  /// ReLU's backward: gx[i] += g[i] where x[i] > 0. Elsewhere (NaN x
  /// included) gx[i] keeps its bits, -0.0 too. gx must not overlap x;
  /// it may be g itself.
  void (*relu_backward)(double* gx, const double* x, const double* g,
                        size_t n);
  /// m[r*cols + c] += a[j][r] * b[j][c] for j = 0, 1, ..., k-1 in that
  /// order — the bits of k successive add_scaled(m + r*cols, b[j],
  /// a[j][r], cols) sweeps over every row r. a[j] holds rows doubles,
  /// b[j] cols; neither may alias m.
  void (*rank_k_update)(double* m, int rows, int cols,
                        const double* const* a, const double* const* b,
                        size_t k);
};

/// The dispatched table (resolved once; see Backend).
const Ops& Active();

/// A specific backend's table, for differential tests and benchmarks.
/// Requesting kAvx2 on a CPU without AVX2 is a programming error
/// (check Avx2Available() first).
const Ops& OpsFor(Backend backend);

/// Test hook: repoints Active() (and ActiveBackend()) at `backend`.
/// Not thread-safe — call only from single-threaded test setup, and
/// restore the previous value afterwards.
Backend ForceBackendForTest(Backend backend);

/// Minimal C++17 aligned allocator so hot flat buffers (node tables,
/// inference scratch arenas) start on a 32-byte boundary.
template <typename T, size_t kAlign>
struct AlignedAllocator {
  using value_type = T;
  // The non-type alignment parameter defeats std::allocator_traits'
  // default rebind deduction; spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, kAlign>;
  };
  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, kAlign>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlign)));
  }
  void deallocate(T* p, size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(kAlign));
  }
  template <typename U>
  bool operator==(const AlignedAllocator<U, kAlign>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U, kAlign>&) const noexcept {
    return false;
  }
};

/// 32-byte-aligned double buffer (one AVX2 register row).
using AlignedVec = std::vector<double, AlignedAllocator<double, 32>>;

}  // namespace gem::math::kernels

#endif  // GEM_MATH_KERNELS_H_
