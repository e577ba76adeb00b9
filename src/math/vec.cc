#include "math/vec.h"

#include <cmath>

#include "base/check.h"
#include "math/kernels.h"

namespace gem::math {

// Every O(n) loop below routes through the dispatched kernel table
// (math/kernels.h) — the Vec functions are the single entry points the
// rest of the codebase uses, so vectorizing here covers tape ops,
// inference, detectors, and eval alike.

double Dot(const Vec& a, const Vec& b) {
  GEM_DCHECK(a.size() == b.size());
  return kernels::Active().dot(a.data(), b.data(), a.size());
}

double Norm2(const Vec& a) { return std::sqrt(Dot(a, a)); }

double SquaredDistance(const Vec& a, const Vec& b) {
  GEM_DCHECK(a.size() == b.size());
  return kernels::Active().squared_distance(a.data(), b.data(), a.size());
}

double Distance(const Vec& a, const Vec& b) {
  return std::sqrt(SquaredDistance(a, b));
}

double CosineDistance(const Vec& a, const Vec& b) {
  GEM_DCHECK(a.size() == b.size());
  // One pass per reduction via the shared dot kernel (the norms are
  // dot(x, x) — no separate re-implementation of the sum loops).
  const kernels::Ops& ops = kernels::Active();
  const double na2 = ops.dot(a.data(), a.data(), a.size());
  const double nb2 = ops.dot(b.data(), b.data(), b.size());
  if (na2 == 0.0 || nb2 == 0.0) return 1.0;
  return 1.0 - ops.dot(a.data(), b.data(), a.size()) /
                   (std::sqrt(na2) * std::sqrt(nb2));
}

void AddScaled(Vec& a, const Vec& b, double scale) {
  GEM_DCHECK(a.size() == b.size());
  kernels::Active().add_scaled(a.data(), b.data(), scale, a.size());
}

void Scale(Vec& a, double scale) {
  kernels::Active().scale(a.data(), scale, a.size());
}

void NormalizeL2(Vec& a) {
  const double norm = Norm2(a);
  if (norm > 0.0) Scale(a, 1.0 / norm);
}

Vec Concat(const Vec& a, const Vec& b) {
  Vec out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace gem::math
