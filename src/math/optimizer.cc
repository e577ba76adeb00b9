#include "math/optimizer.h"

#include <cmath>

#include "base/check.h"

namespace gem::math {
namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;

}  // namespace

void Adam::Register(Parameter* param) {
  GEM_CHECK(param != nullptr);
  Slot slot;
  slot.param = param;
  slot.m = Matrix(param->value.rows(), param->value.cols());
  slot.v = Matrix(param->value.rows(), param->value.cols());
  slots_.push_back(std::move(slot));
}

void Adam::Step(const ParamGradSink& grads) {
  ++step_;
  const double bc1 = 1.0 - std::pow(kBeta1, step_);
  const double bc2 = 1.0 - std::pow(kBeta2, step_);
  for (Slot& slot : slots_) {
    auto& value = slot.param->value.data();
    const Matrix* grad = grads.Find(slot.param);
    const double* g_in = grad != nullptr ? grad->ptr() : nullptr;
    auto& m = slot.m.data();
    auto& v = slot.v.data();
    for (size_t i = 0; i < value.size(); ++i) {
      const double g = g_in != nullptr ? g_in[i] : 0.0;
      m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * g;
      v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * g * g;
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      value[i] -= learning_rate_ * mhat / (std::sqrt(vhat) + kEpsilon);
    }
  }
}

}  // namespace gem::math
