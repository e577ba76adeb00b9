#include "math/optimizer.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "base/check.h"
#include "base/thread_pool.h"
#include "math/kernels.h"

namespace gem::math {
namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;

/// Elements folded and updated per pass, so the fold's sums stay in L1.
constexpr size_t kBlock = 256;

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
  StartStep();
  const ParamGradSink* const sinks[] = {&grads};
  StepPart(sinks, 0, 1);
}

void Adam::StartStep() {
  ++step_;
  bias_correction1_ = 1.0 - std::pow(kBeta1, step_);
  bias_correction2_ = 1.0 - std::pow(kBeta2, step_);
}

void Adam::StepPart(std::span<const ParamGradSink* const> sinks, int part,
                    int num_parts) {
  const size_t k = sinks.size();
  GEM_CHECK(k >= 1 && k <= static_cast<size_t>(kMaxSinks));
  const kernels::Ops& ops = kernels::Active();
  const double bc1 = bias_correction1_;
  const double bc2 = bias_correction2_;
  // The block of a fold-tree node's sum when it adds two touched
  // operands. Only even nodes ever add, so node i uses sums[i / 2].
  alignas(32) double sums[kMaxSinks / 2][kBlock];
  for (Slot& slot : slots_) {
    std::array<const double*, kMaxSinks> grad{};  // null: untouched
    for (size_t s = 0; s < k; ++s) {
      const Matrix* g = sinks[s]->Find(slot.param);
      grad[s] = g != nullptr ? g->ptr() : nullptr;
    }
    double* value = slot.param->value.data().data();
    double* m = slot.m.data().data();
    double* v = slot.v.data().data();
    const auto [begin, end] = StaticChunkRange(
        static_cast<long>(slot.m.size()), num_parts, part);
    for (long b = begin; b < end; b += kBlock) {
      const size_t n = std::min<size_t>(kBlock, end - b);
      // The stride-doubling fold ((s0 + s1) + (s2 + s3)), on this block.
      // Adding an untouched (+0.0) operand returns the other one
      // unchanged, because a sink never holds -0.0; the add itself is
      // add_scaled by 1.0, an exact a + b on both backends.
      std::array<const double*, kMaxSinks> node{};
      for (size_t s = 0; s < k; ++s) {
        node[s] = grad[s] != nullptr ? grad[s] + b : nullptr;
      }
      for (size_t stride = 1; stride < k; stride *= 2) {
        for (size_t i = 0; i + stride < k; i += 2 * stride) {
          const double* rhs = node[i + stride];
          if (rhs == nullptr) continue;
          if (node[i] == nullptr) {
            node[i] = rhs;
            continue;
          }
          double* sum = sums[i / 2];
          if (node[i] != sum) std::copy_n(node[i], n, sum);
          ops.add_scaled(sum, rhs, 1.0, n);
          node[i] = sum;
        }
      }
      const double* g_in = node[0];
      for (size_t j = 0; j < n; ++j) {
        const size_t i = static_cast<size_t>(b) + j;
        const double g = g_in != nullptr ? g_in[j] : 0.0;
        m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * g;
        v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * g * g;
        const double mhat = m[i] / bc1;
        const double vhat = v[i] / bc2;
        value[i] -= learning_rate_ * mhat / (std::sqrt(vhat) + kEpsilon);
      }
    }
  }
}

const Matrix& Adam::first_moment(const Parameter* param) const {
  return SlotFor(param).m;
}

const Matrix& Adam::second_moment(const Parameter* param) const {
  return SlotFor(param).v;
}

const Adam::Slot& Adam::SlotFor(const Parameter* param) const {
  const auto it = std::find_if(
      slots_.begin(), slots_.end(),
      [param](const Slot& slot) { return slot.param == param; });
  GEM_CHECK(it != slots_.end());
  return *it;
}

}  // namespace gem::math
