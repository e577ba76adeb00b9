#ifndef GEM_MATH_VEC_H_
#define GEM_MATH_VEC_H_

#include <cstddef>
#include <vector>

namespace gem::math {

/// Dense vector of doubles. All GEM numeric code uses double precision;
/// embedding dimensions are small (<= a few hundred) so the simplicity
/// outweighs any float savings.
using Vec = std::vector<double>;

/// Returns the inner product a . b. Sizes must match.
double Dot(const Vec& a, const Vec& b);

/// Returns the l2 norm ||a||.
double Norm2(const Vec& a);

/// Returns the squared l2 distance ||a - b||^2.
double SquaredDistance(const Vec& a, const Vec& b);

/// Returns the l2 distance ||a - b||.
double Distance(const Vec& a, const Vec& b);

/// Cosine distance 1 - (a.b)/(||a|| ||b||); returns 1 when either norm
/// is zero (maximally dissimilar by convention).
double CosineDistance(const Vec& a, const Vec& b);

/// a += scale * b (in place). Sizes must match.
void AddScaled(Vec& a, const Vec& b, double scale);

/// a *= scale (in place).
void Scale(Vec& a, double scale);

/// Normalizes a to unit l2 norm in place; leaves a zero vector untouched.
void NormalizeL2(Vec& a);

/// Returns {a; b} concatenated.
Vec Concat(const Vec& a, const Vec& b);

}  // namespace gem::math

#endif  // GEM_MATH_VEC_H_
