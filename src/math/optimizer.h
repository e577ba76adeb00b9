#ifndef GEM_MATH_OPTIMIZER_H_
#define GEM_MATH_OPTIMIZER_H_

#include <vector>

#include "math/autograd.h"
#include "math/matrix.h"

namespace gem::math {

/// Adam over dense Parameters (beta1 = 0.9, beta2 = 0.999, epsilon =
/// 1e-8). Register every Parameter once; Step() applies one update from
/// the gradients a sink accumulated.
class Adam {
 public:
  /// The paper's learning rate of 0.003 is plumbed through model
  /// configs.
  explicit Adam(double learning_rate) : learning_rate_(learning_rate) {}

  /// Registers a parameter; the pointer must outlive the optimizer.
  void Register(Parameter* param);

  /// Applies one Adam update to all registered parameters, reading
  /// each one's gradient from `grads` (zero for an untouched entry).
  /// The caller zeroes the sink before it accumulates the next step.
  void Step(const ParamGradSink& grads);

 private:
  struct Slot {
    Parameter* param;
    Matrix m;
    Matrix v;
  };

  double learning_rate_;
  std::vector<Slot> slots_;
  long step_ = 0;
};

}  // namespace gem::math

#endif  // GEM_MATH_OPTIMIZER_H_
