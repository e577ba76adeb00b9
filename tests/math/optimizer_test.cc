#include "math/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "math/autograd.h"
#include "math/flat_tape.h"
#include "math/kernels.h"
#include "math/rng.h"

namespace gem::math {
namespace {

TEST(AdamTest, MinimizesQuadratic) {
  // Minimize 0.5*||Wx - t||^2 over W for fixed x; optimum is exact when
  // W x == t is achievable.
  Parameter w(2, 2);
  Rng rng(3);
  w.value.FillUniform(rng, 0.5);
  Adam adam(0.05);
  adam.Register(&w);
  ParamGradSink grads;

  const Vec x{1.0, -0.5};
  const Vec target{0.3, 0.7};
  double last_loss = 1e9;
  for (int i = 0; i < 500; ++i) {
    FlatTape tape;
    const VarId xi = tape.Leaf(x);
    tape.AddMseLoss(tape.MatVec(&w, xi), target);
    last_loss = tape.loss();
    tape.Backward(grads);
    adam.Step(grads);
    grads.ZeroAll();
  }
  EXPECT_LT(last_loss, 1e-6);
}

TEST(AdamTest, UntouchedSinkEntryIsAZeroGradient) {
  // One step on a gradient of 1, then ZeroAll: the entry's buffer
  // survives but is untouched, so the next step must see exactly the
  // zero gradient an empty sink gives.
  Parameter a(1, 2);
  Parameter b(1, 2);
  a.value.At(0, 0) = b.value.At(0, 0) = 0.5;
  Adam adam_a(0.1);
  Adam adam_b(0.1);
  adam_a.Register(&a);
  adam_b.Register(&b);
  ParamGradSink grads_a;
  ParamGradSink grads_b;
  grads_a.GradFor(&a).At(0, 0) = 1.0;
  grads_b.GradFor(&b).At(0, 0) = 1.0;
  adam_a.Step(grads_a);
  adam_b.Step(grads_b);
  EXPECT_NE(a.value.At(0, 0), 0.5);
  EXPECT_EQ(a.value.At(0, 1), 0.0);  // a zero gradient moves nothing

  grads_a.ZeroAll();
  adam_a.Step(grads_a);
  adam_b.Step(ParamGradSink());
  EXPECT_EQ(a.value.At(0, 0), b.value.At(0, 0));
  EXPECT_EQ(a.value.At(0, 1), b.value.At(0, 1));
}

/// Adam's state for one parameter, advanced by the reference update.
struct ReferenceSlot {
  std::vector<double> value;
  std::vector<double> m;
  std::vector<double> v;
};

/// The reference step: every element's gradient is the stride-doubling
/// fold of plain adds over the sinks ((s0 + s1) + (s2 + s3)), an
/// untouched entry reading +0.0, followed by the Adam update of
/// step t.
void ReferenceStep(const Parameter& param, const std::vector<ParamGradSink>& sinks,
                   long t, double learning_rate, ReferenceSlot& slot) {
  const double bc1 = 1.0 - std::pow(0.9, t);
  const double bc2 = 1.0 - std::pow(0.999, t);
  const size_t k = sinks.size();
  for (size_t i = 0; i < slot.value.size(); ++i) {
    double node[Adam::kMaxSinks];
    for (size_t s = 0; s < k; ++s) {
      const Matrix* g = sinks[s].Find(&param);
      node[s] = g != nullptr ? g->ptr()[i] : 0.0;
    }
    for (size_t stride = 1; stride < k; stride *= 2) {
      for (size_t j = 0; j + stride < k; j += 2 * stride) {
        node[j] = node[j] + node[j + stride];
      }
    }
    const double g = node[0];
    slot.m[i] = 0.9 * slot.m[i] + (1.0 - 0.9) * g;
    slot.v[i] = 0.999 * slot.v[i] + (1.0 - 0.999) * g * g;
    const double mhat = slot.m[i] / bc1;
    const double vhat = slot.v[i] / bc2;
    slot.value[i] -= learning_rate * mhat / (std::sqrt(vhat) + 1e-8);
  }
}

void ExpectSameBits(const std::vector<double>& expected, const Matrix& actual,
                    const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual.ptr()[i]) << what << " element " << i;
  }
}

/// Fills `grad` with values spanning six decades, so adding the same
/// operands in another order changes the bits.
void FillSpread(Matrix& grad, Rng& rng) {
  for (int r = 0; r < grad.rows(); ++r) {
    for (int c = 0; c < grad.cols(); ++c) {
      grad.At(r, c) = rng.Normal(0.0, 1.0) * std::pow(10.0, rng.Uniform(-3, 3));
    }
  }
}

// StepPart over 1-4 sinks, split into 1-4 parts (3 does not divide the
// 2048 elements of a BiSAGE-sized weight matrix), over several steps,
// equals the reference fold and update bit for bit: weights, m and v,
// under both kernel backends. Sink 1 is untouched (ZeroAll after
// use), and the last of three or four sinks holds no entry for the
// small parameter. The parts run in reverse order, so no part reads
// what another wrote.
TEST(AdamTest, StepPartFoldsSinksInTreeOrderAtEveryPartCount) {
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::Avx2Available()) backends.push_back(kernels::Backend::kAvx2);
  constexpr double kLearningRate = 0.003;
  constexpr long kSteps = 3;
  for (const kernels::Backend backend : backends) {
    const kernels::Backend previous = kernels::ForceBackendForTest(backend);
    for (int k = 1; k <= Adam::kMaxSinks; ++k) {
      for (int parts = 1; parts <= 4; ++parts) {
        SCOPED_TRACE(std::string(kernels::BackendName(backend)) + ", " +
                     std::to_string(k) + " sinks, " + std::to_string(parts) +
                     " parts");
        Rng rng(static_cast<uint64_t>(100 * k + parts));
        Parameter big(32, 64);
        Parameter small(3, 5);
        big.value.FillUniform(rng, 0.5);
        small.value.FillUniform(rng, 0.5);
        Adam adam(kLearningRate);
        adam.Register(&big);
        adam.Register(&small);
        const auto reference_of = [](const Parameter& p) {
          return ReferenceSlot{
              std::vector<double>(p.value.ptr(), p.value.ptr() + p.value.size()),
              std::vector<double>(p.value.size(), 0.0),
              std::vector<double>(p.value.size(), 0.0)};
        };
        ReferenceSlot ref_big = reference_of(big);
        ReferenceSlot ref_small = reference_of(small);

        std::vector<ParamGradSink> sinks(k);
        std::vector<const ParamGradSink*> sink_ptrs;
        for (const ParamGradSink& sink : sinks) sink_ptrs.push_back(&sink);
        for (long t = 1; t <= kSteps; ++t) {
          for (int s = 0; s < k; ++s) {
            sinks[s].ZeroAll();
            FillSpread(sinks[s].GradFor(&big), rng);
            if (k >= 3 && s == k - 1) continue;  // no entry for `small`
            FillSpread(sinks[s].GradFor(&small), rng);
          }
          if (k >= 2) sinks[1].ZeroAll();  // untouched: reads +0.0

          adam.StartStep();
          for (int part = parts - 1; part >= 0; --part) {
            adam.StepPart(sink_ptrs, part, parts);
          }
          ReferenceStep(big, sinks, t, kLearningRate, ref_big);
          ReferenceStep(small, sinks, t, kLearningRate, ref_small);
          ExpectSameBits(ref_big.value, big.value, "big value");
          ExpectSameBits(ref_big.m, adam.first_moment(&big), "big m");
          ExpectSameBits(ref_big.v, adam.second_moment(&big), "big v");
          ExpectSameBits(ref_small.value, small.value, "small value");
          ExpectSameBits(ref_small.m, adam.first_moment(&small), "small m");
          ExpectSameBits(ref_small.v, adam.second_moment(&small), "small v");
        }
      }
    }
    kernels::ForceBackendForTest(previous);
  }
}

}  // namespace
}  // namespace gem::math
