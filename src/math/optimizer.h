#ifndef GEM_MATH_OPTIMIZER_H_
#define GEM_MATH_OPTIMIZER_H_

#include <memory>
#include <vector>

#include "math/autograd.h"
#include "math/matrix.h"

namespace gem::math {

/// Adam hyperparameters (defaults follow the usual convention; the
/// paper's learning rate of 0.003 is plumbed through model configs).
struct AdamOptions {
  double learning_rate = 0.003;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

/// Adam over dense Parameters. Register every Parameter once; Step()
/// applies the update from accumulated gradients and zeroes them.
class Adam {
 public:
  explicit Adam(AdamOptions options = {}) : options_(options) {}

  /// Registers a parameter; the pointer must outlive the optimizer.
  void Register(Parameter* param);

  /// Applies one Adam update to all registered parameters, then zeroes
  /// their gradients.
  void Step();

  const AdamOptions& options() const { return options_; }

 private:
  struct Slot {
    Parameter* param;
    Matrix m;
    Matrix v;
  };

  AdamOptions options_;
  std::vector<Slot> slots_;
  long step_ = 0;
};

}  // namespace gem::math

#endif  // GEM_MATH_OPTIMIZER_H_
