#include "math/matrix.h"

#include <cmath>

#include "base/check.h"
#include "math/rng.h"

namespace gem::math {

namespace {

bool ViewAligned(const double* data) {
  return reinterpret_cast<uintptr_t>(data) % kViewAlignment == 0;
}

}  // namespace

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), fill) {
  GEM_CHECK(rows >= 0 && cols >= 0);
}

StatusOr<Matrix> Matrix::View(const double* data, int rows, int cols) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("Matrix::View: negative shape");
  }
  const size_t count = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  if (data == nullptr && count > 0) {
    return Status::InvalidArgument("Matrix::View: null data with > 0 cells");
  }
  if (data != nullptr && !ViewAligned(data)) {
    return Status::InvalidArgument(
        "Matrix::View: data must be 32-byte aligned for kernel streaming");
  }
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.view_ = count > 0 ? data : nullptr;
  return m;
}

void Matrix::Materialize() {
  if (!borrowed()) return;
  data_.assign(view_, view_ + size());
  view_ = nullptr;
}

Vec Matrix::Row(int r) const {
  GEM_DCHECK(r >= 0 && r < rows_);
  return Vec(RowPtr(r), RowPtr(r) + cols_);
}

void Matrix::SetRow(int r, const Vec& v) {
  GEM_CHECK(!borrowed());
  GEM_DCHECK(r >= 0 && r < rows_);
  GEM_CHECK(static_cast<int>(v.size()) == cols_);
  std::copy(v.begin(), v.end(), RowPtr(r));
}

void Matrix::Fill(double value) {
  GEM_CHECK(!borrowed());
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::FillUniform(Rng& rng, double scale) {
  GEM_CHECK(!borrowed());
  for (double& x : data_) x = rng.Uniform(-scale, scale);
}

void Matrix::FillGlorot(Rng& rng) {
  const double scale = std::sqrt(6.0 / (rows_ + cols_));
  FillUniform(rng, scale);
}

Vec Matrix::MatVec(const Vec& x) const {
  GEM_CHECK(static_cast<int>(x.size()) == cols_);
  Vec y(rows_);
  kernels::Active().matvec(ptr(), rows_, cols_, x.data(), y.data());
  return y;
}

void Matrix::AddScaled(const Matrix& other, double scale) {
  GEM_CHECK(!borrowed());
  GEM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  kernels::Active().add_scaled(data_.data(), other.ptr(), scale, size());
}

void Matrix::AppendRow(const Vec& v) {
  GEM_CHECK(!borrowed());
  if (rows_ == 0 && cols_ == 0) cols_ = static_cast<int>(v.size());
  GEM_CHECK(static_cast<int>(v.size()) == cols_);
  data_.insert(data_.end(), v.begin(), v.end());
  ++rows_;
}

}  // namespace gem::math
