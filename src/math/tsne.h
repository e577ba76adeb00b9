#ifndef GEM_MATH_TSNE_H_
#define GEM_MATH_TSNE_H_

#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "math/vec.h"

namespace gem::math {

/// Options for the exact (O(n^2)) t-SNE used to reproduce Figure 6.
struct TsneOptions {
  int output_dim = 2;
  double perplexity = 30.0;
  int iterations = 500;
  double learning_rate = 100.0;
  double early_exaggeration = 12.0;
  int exaggeration_iters = 100;
  double initial_momentum = 0.5;
  double final_momentum = 0.8;
  int momentum_switch_iter = 250;
  uint64_t seed = 7;
};

/// Embeds `points` (rows) into options.output_dim dimensions with
/// van der Maaten & Hinton's t-SNE (exact pairwise version, suitable
/// for the few hundred embeddings GEM visualizes). Returns a matrix
/// with one low-dimensional row per input row.
///
/// Returns InvalidArgument when there are fewer than 3 points or the
/// perplexity is infeasible for the point count.
StatusOr<Matrix> Tsne(const Matrix& points, const TsneOptions& options = {});

}  // namespace gem::math

#endif  // GEM_MATH_TSNE_H_
