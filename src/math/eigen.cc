#include "math/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace gem::math {

StatusOr<EigenDecomposition> JacobiEigenSymmetric(const Matrix& a_in,
                                                  int max_sweeps, double tol) {
  if (a_in.rows() != a_in.cols()) {
    return Status::InvalidArgument("matrix must be square");
  }
  const int n = a_in.rows();
  Matrix a = a_in;                 // working copy, becomes diagonal
  Matrix v(n, n, 0.0);             // accumulated rotations (columns = vectors)
  for (int i = 0; i < n; ++i) v.At(i, i) = 1.0;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) off += a.At(p, q) * a.At(p, q);
    }
    if (off < tol * tol) break;

    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = a.At(p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double app = a.At(p, p);
        const double aqq = a.At(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) +
                          std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (int k = 0; k < n; ++k) {
          const double akp = a.At(k, p);
          const double akq = a.At(k, q);
          a.At(k, p) = c * akp - s * akq;
          a.At(k, q) = s * akp + c * akq;
        }
        for (int k = 0; k < n; ++k) {
          const double apk = a.At(p, k);
          const double aqk = a.At(q, k);
          a.At(p, k) = c * apk - s * aqk;
          a.At(q, k) = s * apk + c * aqk;
        }
        for (int k = 0; k < n; ++k) {
          const double vkp = v.At(k, p);
          const double vkq = v.At(k, q);
          v.At(k, p) = c * vkp - s * vkq;
          v.At(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort by descending eigenvalue.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int x, int y) { return a.At(x, x) > a.At(y, y); });

  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    out.values[i] = a.At(order[i], order[i]);
    for (int k = 0; k < n; ++k) out.vectors.At(i, k) = v.At(k, order[i]);
  }
  return out;
}

}  // namespace gem::math
