#ifndef GEM_MATH_EIGEN_H_
#define GEM_MATH_EIGEN_H_

#include "base/status.h"
#include "base/statusor.h"
#include "math/matrix.h"
#include "math/vec.h"

namespace gem::math {

/// Eigendecomposition of a symmetric matrix.
struct EigenDecomposition {
  /// Eigenvalues in descending order.
  Vec values;
  /// eigenvectors.Row(i) is the unit eigenvector for values[i].
  Matrix vectors;
};

/// Cyclic Jacobi eigensolver for a symmetric matrix. Used by classical
/// MDS. O(n^3) per sweep; fine for the few-hundred-point matrices GEM
/// produces. Returns InvalidArgument for a non-square input.
StatusOr<EigenDecomposition> JacobiEigenSymmetric(const Matrix& a,
                                                  int max_sweeps = 50,
                                                  double tol = 1e-10);

}  // namespace gem::math

#endif  // GEM_MATH_EIGEN_H_
