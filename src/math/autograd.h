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

/// A trainable dense matrix with a gradient buffer. Shared across tapes;
/// gradients accumulate until ZeroGrad() (typically via an optimizer
/// step).
class Parameter {
 public:
  Parameter(int rows, int cols) : value(rows, cols), grad(rows, cols) {}

  void ZeroGrad() { grad.Fill(0.0); }

  Matrix value;
  Matrix grad;
};

/// Handle to a vector-valued node on a FlatTape.
using VarId = int;

/// Private gradient accumulator for Parameters. Backward(&sink) writes
/// parameter gradients here instead of the shared Parameter::grad, so
/// several threads can each run Backward on their own tape + sink with
/// no write to shared state; the caller then folds the sinks into
/// Parameter::grad serially, in a fixed order, via FlushToParams()
/// (floating-point addition is not associative, so the fold order is
/// what makes the parallel loss gradient deterministic).
class ParamGradSink {
 public:
  /// This sink's buffer for param, zero-initialized to param's shape on
  /// first use (and re-zeroed by ZeroAll()).
  Matrix& GradFor(Parameter* param);

  /// Adds every buffered gradient into its Parameter::grad, in the
  /// order the parameters were first seen by this sink. Entries not
  /// touched since the last ZeroAll() are skipped entirely — the flush
  /// sequence of a reused sink is identical to a fresh sink's (adding
  /// an all-zero matrix is not a no-op in IEEE arithmetic: it turns
  /// -0.0 into +0.0).
  void FlushToParams() const;

  /// Folds another sink's touched gradients into this one (used for
  /// the tree-wise reduction of per-shard sinks). Buffer layout of
  /// `other` is unchanged.
  void MergeFrom(const ParamGradSink& other);

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
