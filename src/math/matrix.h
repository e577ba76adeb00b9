#ifndef GEM_MATH_MATRIX_H_
#define GEM_MATH_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/check.h"
#include "base/status.h"
#include "base/statusor.h"
#include "math/kernels.h"
#include "math/vec.h"

namespace gem::math {

class Rng;

/// Storage alignment contract for borrowed f64 blocks: the SIMD kernels
/// stream owned buffers from a 32-byte-aligned base, and the v2
/// snapshot format lays its data sections out 64-byte-aligned precisely
/// so views over the mapping satisfy the same contract.
inline constexpr size_t kViewAlignment = 32;

/// Dense row-major matrix of doubles. Storage is either an owned flat
/// 32-byte-aligned buffer (kernels::AlignedVec) or a borrowed view over
/// external 32-byte-aligned storage (View()); the products below route
/// through the dispatched kernels in math/kernels.h either way.
///
/// Borrowed matrices are read-only: every mutator checks !borrowed().
/// Copying a borrowed Matrix copies the view pointer, NOT the bytes —
/// the backing storage (e.g. a store::MappedModel's mapping) must
/// outlive every copy. Materialize() converts in place to owned
/// storage when mutation is needed.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0);

  /// Borrows rows*cols doubles starting at data. InvalidArgument when
  /// data is null with a non-empty shape or not 32-byte aligned.
  static StatusOr<Matrix> View(const double* data, int rows, int cols);

  /// True when this matrix reads borrowed storage (no owned bytes).
  bool borrowed() const { return view_ != nullptr; }

  /// Copies borrowed storage into an owned aligned buffer; no-op for
  /// an already-owned matrix.
  void Materialize();

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const {
    return static_cast<size_t>(rows_) * static_cast<size_t>(cols_);
  }

  /// Base pointer for reads: the view when borrowed, else owned data.
  const double* ptr() const { return view_ != nullptr ? view_ : data_.data(); }

  double& At(int r, int c) {
    GEM_DCHECK(!borrowed());
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double At(int r, int c) const {
    return ptr()[static_cast<size_t>(r) * cols_ + c];
  }

  /// Pointer to the start of row r.
  double* RowPtr(int r) {
    GEM_DCHECK(!borrowed());
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  const double* RowPtr(int r) const {
    return ptr() + static_cast<size_t>(r) * cols_;
  }

  /// Copies row r into a Vec.
  Vec Row(int r) const;

  /// Overwrites row r from v (v.size() must equal cols()).
  void SetRow(int r, const Vec& v);

  /// Sets all entries to value.
  void Fill(double value);

  /// Fills with i.i.d. uniform values in [-scale, scale].
  void FillUniform(Rng& rng, double scale);

  /// Fills with Glorot/Xavier uniform init: scale = sqrt(6/(rows+cols)).
  void FillGlorot(Rng& rng);

  /// y = M x  (x.size() == cols; returns size rows).
  Vec MatVec(const Vec& x) const;

  /// M += scale * other (same shape).
  void AddScaled(const Matrix& other, double scale);

  /// Appends a row (v.size() must equal cols(); for an empty matrix the
  /// column count is taken from v).
  void AppendRow(const Vec& v);

  /// Owned storage accessors. Only valid for owned matrices — borrowed
  /// storage is reached through ptr()/RowPtr()/At().
  const kernels::AlignedVec& data() const {
    GEM_DCHECK(!borrowed());
    return data_;
  }
  kernels::AlignedVec& data() {
    GEM_DCHECK(!borrowed());
    return data_;
  }

 private:
  int rows_;
  int cols_;
  kernels::AlignedVec data_;
  // Non-null iff borrowed; points at rows_*cols_ external doubles.
  const double* view_ = nullptr;
};

}  // namespace gem::math

#endif  // GEM_MATH_MATRIX_H_
