#include "math/autograd.h"

#include <cmath>

namespace gem::math {

double LogSigmoid(double z) {
  if (z >= 0.0) return -std::log1p(std::exp(-z));
  return z - std::log1p(std::exp(z));
}

double SigmoidScalar(double z) {
  if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}

Matrix& ParamGradSink::GradFor(Parameter* param) {
  for (Entry& entry : grads_) {
    if (entry.param == param) {
      entry.touched = true;
      return entry.grad;
    }
  }
  grads_.push_back(
      Entry{param, Matrix(param->value.rows(), param->value.cols()), true});
  return grads_.back().grad;
}

const Matrix* ParamGradSink::Find(const Parameter* param) const {
  for (const Entry& entry : grads_) {
    if (entry.param == param) return entry.touched ? &entry.grad : nullptr;
  }
  return nullptr;
}

void ParamGradSink::ZeroAll() {
  for (Entry& entry : grads_) {
    if (entry.touched) entry.grad.Fill(0.0);
    entry.touched = false;
  }
}

}  // namespace gem::math
