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
  AdamOptions opts;
  opts.learning_rate = 0.05;
  Adam adam(opts);
  adam.Register(&w);

  const Vec x{1.0, -0.5};
  const Vec target{0.3, 0.7};
  double last_loss = 1e9;
  for (int i = 0; i < 500; ++i) {
    FlatTape tape;
    const VarId xi = tape.Leaf(x);
    tape.AddMseLoss(tape.MatVec(&w, xi), target);
    last_loss = tape.loss();
    tape.Backward();
    adam.Step();
  }
  EXPECT_LT(last_loss, 1e-6);
}

TEST(AdamTest, StepZeroesGradients) {
  Parameter w(1, 1);
  w.grad.At(0, 0) = 5.0;
  Adam adam;
  adam.Register(&w);
  adam.Step();
  EXPECT_DOUBLE_EQ(w.grad.At(0, 0), 0.0);
}

}  // namespace
}  // namespace gem::math
