#include "math/tsne.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"

namespace gem::math {
namespace {

/// Finds, per point, the Gaussian bandwidth whose conditional
/// distribution has the requested perplexity (binary search on
/// precision beta = 1/(2 sigma^2)), and returns the conditional
/// similarity matrix P(j|i).
Matrix ConditionalAffinities(const Matrix& sqdist, double perplexity) {
  const int n = sqdist.rows();
  const double target_entropy = std::log(perplexity);
  Matrix p(n, n, 0.0);

  for (int i = 0; i < n; ++i) {
    double beta = 1.0;
    double beta_lo = 0.0;
    double beta_hi = std::numeric_limits<double>::infinity();

    Vec row(n, 0.0);
    for (int iter = 0; iter < 60; ++iter) {
      double sum = 0.0;
      for (int j = 0; j < n; ++j) {
        row[j] = (j == i) ? 0.0 : std::exp(-beta * sqdist.At(i, j));
        sum += row[j];
      }
      if (sum <= 0.0) sum = 1e-300;
      double entropy = 0.0;
      for (int j = 0; j < n; ++j) {
        if (row[j] > 0.0) {
          const double pj = row[j] / sum;
          entropy -= pj * std::log(pj);
        }
      }
      const double diff = entropy - target_entropy;
      if (std::fabs(diff) < 1e-5) break;
      if (diff > 0.0) {  // entropy too high -> sharpen
        beta_lo = beta;
        beta = std::isinf(beta_hi) ? beta * 2.0 : (beta + beta_hi) / 2.0;
      } else {
        beta_hi = beta;
        beta = (beta + beta_lo) / 2.0;
      }
      for (int j = 0; j < n; ++j) {
        row[j] = (j == i) ? 0.0 : std::exp(-beta * sqdist.At(i, j));
      }
    }
    double sum = 0.0;
    for (int j = 0; j < n; ++j) sum += row[j];
    if (sum <= 0.0) sum = 1e-300;
    for (int j = 0; j < n; ++j) p.At(i, j) = row[j] / sum;
  }
  return p;
}

}  // namespace

StatusOr<Matrix> Tsne(const Matrix& points, const TsneOptions& options) {
  const int n = points.rows();
  if (n < 3) return Status::InvalidArgument("t-SNE needs at least 3 points");
  const double perplexity =
      std::min(options.perplexity, (n - 1) / 3.0);
  if (perplexity < 1.0) {
    return Status::InvalidArgument("perplexity infeasible for point count");
  }

  // Pairwise squared distances.
  Matrix sqdist(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    const Vec ri = points.Row(i);
    for (int j = i + 1; j < n; ++j) {
      const double d = SquaredDistance(ri, points.Row(j));
      sqdist.At(i, j) = d;
      sqdist.At(j, i) = d;
    }
  }

  // Symmetrized joint probabilities.
  Matrix p_cond = ConditionalAffinities(sqdist, perplexity);
  Matrix p(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      p.At(i, j) =
          std::max((p_cond.At(i, j) + p_cond.At(j, i)) / (2.0 * n), 1e-12);
    }
  }

  Rng rng(options.seed);
  const int d = options.output_dim;
  Matrix y(n, d, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < d; ++k) y.At(i, k) = rng.Normal(0.0, 1e-4);
  }
  Matrix velocity(n, d, 0.0);
  Matrix gains(n, d, 1.0);

  for (int iter = 0; iter < options.iterations; ++iter) {
    const double exaggeration =
        iter < options.exaggeration_iters ? options.early_exaggeration : 1.0;
    const double momentum = iter < options.momentum_switch_iter
                                ? options.initial_momentum
                                : options.final_momentum;

    // Student-t affinities in the embedding.
    Matrix num(n, n, 0.0);
    double q_sum = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        double sq = 0.0;
        for (int k = 0; k < d; ++k) {
          const double diff = y.At(i, k) - y.At(j, k);
          sq += diff * diff;
        }
        const double v = 1.0 / (1.0 + sq);
        num.At(i, j) = v;
        num.At(j, i) = v;
        q_sum += 2.0 * v;
      }
    }
    if (q_sum <= 0.0) q_sum = 1e-300;

    // Gradient: 4 * sum_j (p_ij*ex - q_ij) * num_ij * (y_i - y_j).
    Matrix grad(n, d, 0.0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        const double q = std::max(num.At(i, j) / q_sum, 1e-12);
        const double mult =
            4.0 * (exaggeration * p.At(i, j) - q) * num.At(i, j);
        for (int k = 0; k < d; ++k) {
          grad.At(i, k) += mult * (y.At(i, k) - y.At(j, k));
        }
      }
    }

    // Delta-bar-delta gains + momentum update.
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < d; ++k) {
        const bool same_sign =
            (grad.At(i, k) > 0.0) == (velocity.At(i, k) > 0.0);
        double& gain = gains.At(i, k);
        gain = same_sign ? std::max(gain * 0.8, 0.01) : gain + 0.2;
        velocity.At(i, k) = momentum * velocity.At(i, k) -
                            options.learning_rate * gain * grad.At(i, k);
        y.At(i, k) += velocity.At(i, k);
      }
    }

    // Recentre.
    for (int k = 0; k < d; ++k) {
      double mean = 0.0;
      for (int i = 0; i < n; ++i) mean += y.At(i, k);
      mean /= n;
      for (int i = 0; i < n; ++i) y.At(i, k) -= mean;
    }
  }
  return y;
}

}  // namespace gem::math
