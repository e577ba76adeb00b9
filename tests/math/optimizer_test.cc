#include "math/optimizer.h"

#include <gtest/gtest.h>

#include "math/autograd.h"
#include "math/flat_tape.h"
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

}  // namespace
}  // namespace gem::math
