#ifndef GEM_MATH_AUTOGRAD_H_
#define GEM_MATH_AUTOGRAD_H_

#include <vector>

#include "math/matrix.h"

namespace gem::math {

/// FlatTape's L2-normalization epsilon: vectors with norm <= kNormEps
/// pass through unchanged (forward) and propagate their gradient
/// unchanged (backward).
inline constexpr double kNormEps = 1e-12;

/// Numerically stable log(sigmoid(z)) = -softplus(-z).
double LogSigmoid(double z);

/// Numerically stable sigmoid(z), branch on sign to avoid overflow.
double SigmoidScalar(double z);

/// A trainable dense matrix, shared across tapes. Its gradient lives in
/// the ParamGradSink a FlatTape::Backward writes into.
class Parameter {
 public:
  Parameter(int rows, int cols) : value(rows, cols) {}

  Matrix value;
};

/// Handle to a vector-valued node on a FlatTape.
using VarId = int;

/// Gradient accumulator for Parameters, the one place parameter
/// gradients live: FlatTape::Backward adds into a sink and Adam reads
/// one, or folds BiSAGE's per-shard sinks in an order fixed by their
/// count (floating-point addition is not associative, so the fold order
/// is what makes the parallel loss gradient deterministic). Each thread
/// runs Backward on its own tape + sink with no write to shared state.
/// A buffer starts at +0.0 and only accumulates, so it never holds
/// -0.0.
class ParamGradSink {
 public:
  /// This sink's buffer for param, zero-initialized to param's shape on
  /// first use (and re-zeroed by ZeroAll()).
  Matrix& GradFor(Parameter* param);

  /// The buffer for param when it was touched since the last ZeroAll(),
  /// else null: an untouched entry reads as a zero gradient.
  const Matrix* Find(const Parameter* param) const;

  /// Zeroes every buffer in place, keeping the allocations, so a sink
  /// can be reused across shards/batches without re-allocating.
  void ZeroAll();

 private:
  struct Entry {
    Parameter* param;
    Matrix grad;
    bool touched = true;
  };
  std::vector<Entry> grads_;
};

}  // namespace gem::math

#endif  // GEM_MATH_AUTOGRAD_H_
