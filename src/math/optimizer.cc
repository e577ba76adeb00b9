#include "math/optimizer.h"

#include <cmath>

#include "base/check.h"

namespace gem::math {

void Adam::Register(Parameter* param) {
  GEM_CHECK(param != nullptr);
  Slot slot;
  slot.param = param;
  slot.m = Matrix(param->value.rows(), param->value.cols());
  slot.v = Matrix(param->value.rows(), param->value.cols());
  slots_.push_back(std::move(slot));
}

void Adam::Step() {
  ++step_;
  const double bc1 = 1.0 - std::pow(options_.beta1, step_);
  const double bc2 = 1.0 - std::pow(options_.beta2, step_);
  for (Slot& slot : slots_) {
    auto& value = slot.param->value.data();
    auto& grad = slot.param->grad.data();
    auto& m = slot.m.data();
    auto& v = slot.v.data();
    for (size_t i = 0; i < value.size(); ++i) {
      const double g = grad[i];
      m[i] = options_.beta1 * m[i] + (1.0 - options_.beta1) * g;
      v[i] = options_.beta2 * v[i] + (1.0 - options_.beta2) * g * g;
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      value[i] -=
          options_.learning_rate * mhat / (std::sqrt(vhat) + options_.epsilon);
    }
    slot.param->ZeroGrad();
  }
}

}  // namespace gem::math
