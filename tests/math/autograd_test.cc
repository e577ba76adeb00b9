#include "math/autograd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "math/flat_tape.h"
#include "math/rng.h"

namespace gem::math {
namespace {

/// Finite-difference check of FlatTape's reverse mode: builds the graph
/// twice per perturbed leaf entry and compares the numerical derivative
/// of the total loss against the analytic leaf gradient.
///
/// `build` maps leaf values -> (tape with losses attached, leaf ids).
/// The leaves must be grad-tracked Inputs: Backward computes nothing
/// into a constant Leaf.
struct BuiltGraph {
  std::vector<VarId> leaves;
};

using BuildFn =
    std::function<BuiltGraph(FlatTape&, const std::vector<Vec>&)>;

void CheckLeafGradients(const BuildFn& build, std::vector<Vec> leaf_values,
                        double eps = 1e-6, double tol = 1e-5) {
  FlatTape tape;
  const BuiltGraph g = build(tape, leaf_values);
  ParamGradSink sink;
  tape.Backward(sink);
  std::vector<Vec> analytic;
  analytic.reserve(g.leaves.size());
  for (VarId id : g.leaves) {
    analytic.emplace_back(tape.grad(id), tape.grad(id) + tape.size_of(id));
  }

  for (size_t li = 0; li < leaf_values.size(); ++li) {
    for (size_t k = 0; k < leaf_values[li].size(); ++k) {
      auto perturbed = leaf_values;
      perturbed[li][k] += eps;
      FlatTape tp;
      build(tp, perturbed);
      const double loss_plus = tp.loss();

      perturbed[li][k] -= 2 * eps;
      FlatTape tm;
      build(tm, perturbed);
      const double loss_minus = tm.loss();

      const double numeric = (loss_plus - loss_minus) / (2 * eps);
      EXPECT_NEAR(analytic[li][k], numeric, tol)
          << "leaf " << li << " dim " << k;
    }
  }
}

TEST(AutogradTest, DotForward) {
  FlatTape tape;
  const VarId a = tape.Leaf({1, 2, 3});
  const VarId b = tape.Leaf({4, 5, 6});
  const VarId d = tape.Dot(a, b);
  EXPECT_DOUBLE_EQ(tape.value(d)[0], 32.0);
}

TEST(AutogradTest, GradDotViaMse) {
  CheckLeafGradients(
      [](FlatTape& t, const std::vector<Vec>& leaves) {
        const VarId a = t.Input(leaves[0]);
        const VarId b = t.Input(leaves[1]);
        t.AddMseLoss(t.Dot(a, b), {1.0});
        return BuiltGraph{{a, b}};
      },
      {{0.3, -0.5, 0.2}, {0.1, 0.4, -0.7}});
}

TEST(AutogradTest, GradLogSigmoidLoss) {
  CheckLeafGradients(
      [](FlatTape& t, const std::vector<Vec>& leaves) {
        const VarId a = t.Input(leaves[0]);
        const VarId b = t.Input(leaves[1]);
        const VarId d = t.Dot(a, b);
        t.AddLogSigmoidLoss(d, +1.0);
        t.AddLogSigmoidLoss(d, -1.0, 0.5);
        return BuiltGraph{{a, b}};
      },
      {{0.3, -0.5}, {0.8, 0.4}});
}

TEST(AutogradTest, GradRelu) {
  CheckLeafGradients(
      [](FlatTape& t, const std::vector<Vec>& leaves) {
        const VarId x = t.Input(leaves[0]);
        t.AddMseLoss(t.Relu(x), {1.0, -1.0, 0.5});
        return BuiltGraph{{x}};
      },
      // Keep entries away from the ReLU kink at 0.
      {{0.5, -0.7, 0.3}});
}

TEST(AutogradTest, GradTanh) {
  CheckLeafGradients(
      [](FlatTape& t, const std::vector<Vec>& leaves) {
        const VarId x = t.Input(leaves[0]);
        t.AddMseLoss(t.Tanh(x), {0.2, -0.3});
        return BuiltGraph{{x}};
      },
      {{0.5, -1.2}});
}

TEST(AutogradTest, GradL2Normalize) {
  CheckLeafGradients(
      [](FlatTape& t, const std::vector<Vec>& leaves) {
        const VarId x = t.Input(leaves[0]);
        t.AddMseLoss(t.L2Normalize(x), {0.5, -0.5, 0.1});
        return BuiltGraph{{x}};
      },
      {{1.0, 2.0, -1.5}});
}

TEST(AutogradTest, GradConcatAndWeightedSum) {
  CheckLeafGradients(
      [](FlatTape& t, const std::vector<Vec>& leaves) {
        const VarId a = t.Input(leaves[0]);
        const VarId b = t.Input(leaves[1]);
        const VarId c = t.Input(leaves[2]);
        const VarId ws = t.WeightedSum({a, b}, {0.7, 0.3});
        const VarId cat = t.Concat(ws, c);
        t.AddMseLoss(cat, {0.1, 0.2, 0.3, 0.4});
        return BuiltGraph{{a, b, c}};
      },
      {{1.0, -1.0}, {0.5, 0.5}, {2.0, 0.0}});
}

TEST(AutogradTest, GradMatVecIntoLeaf) {
  // Checks dL/dx through y = Wx.
  Parameter w(2, 3);
  Rng rng(4);
  w.value.FillUniform(rng, 0.5);
  CheckLeafGradients(
      [&w](FlatTape& t, const std::vector<Vec>& leaves) {
        const VarId x = t.Input(leaves[0]);
        t.AddMseLoss(t.MatVec(&w, x), {0.1, -0.2});
        return BuiltGraph{{x}};
      },
      {{0.5, -0.3, 0.8}});
}

TEST(AutogradTest, GradMatVecParameter) {
  // Finite-difference check of dL/dW entries.
  Parameter w(2, 2);
  w.value.At(0, 0) = 0.3;
  w.value.At(0, 1) = -0.4;
  w.value.At(1, 0) = 0.1;
  w.value.At(1, 1) = 0.7;
  const Vec x{0.5, -0.6};
  const Vec target{1.0, -1.0};

  auto loss_of = [&](const Matrix& wv) {
    FlatTape t;
    Parameter local(2, 2);
    local.value = wv;
    const VarId xi = t.Leaf(x);
    t.AddMseLoss(t.MatVec(&local, xi), target);
    return t.loss();
  };

  FlatTape tape;
  const VarId xi = tape.Leaf(x);
  tape.AddMseLoss(tape.MatVec(&w, xi), target);
  ParamGradSink sink;
  tape.Backward(sink);
  const Matrix* dw = sink.Find(&w);
  ASSERT_NE(dw, nullptr);

  const double eps = 1e-6;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      Matrix wp = w.value;
      wp.At(r, c) += eps;
      Matrix wm = w.value;
      wm.At(r, c) -= eps;
      const double numeric = (loss_of(wp) - loss_of(wm)) / (2 * eps);
      EXPECT_NEAR(dw->At(r, c), numeric, 1e-5);
    }
  }
}

TEST(AutogradTest, DeepCompositionGradient) {
  // A BiSAGE-shaped pipeline: weighted-sum -> concat -> matvec -> relu ->
  // l2norm -> dot -> log-sigmoid losses.
  Parameter w(3, 6);
  Rng rng(8);
  w.value.FillUniform(rng, 0.4);
  CheckLeafGradients(
      [&w](FlatTape& t, const std::vector<Vec>& leaves) {
        const VarId self = t.Input(leaves[0]);
        const VarId n1 = t.Input(leaves[1]);
        const VarId n2 = t.Input(leaves[2]);
        const VarId other = t.Input(leaves[3]);
        const VarId agg = t.WeightedSum({n1, n2}, {0.6, 0.4});
        const VarId cat = t.Concat(self, agg);
        const VarId lin = t.MatVec(&w, cat);
        const VarId act = t.Relu(lin);
        const VarId emb = t.L2Normalize(act);
        const VarId dot = t.Dot(emb, other);
        t.AddLogSigmoidLoss(dot, +1.0);
        return BuiltGraph{{self, n1, n2, other}};
      },
      {{0.4, -0.2, 0.7}, {0.1, 0.9, -0.3}, {-0.5, 0.2, 0.6},
       {0.3, 0.3, 0.3}},
      1e-6, 1e-4);
}

TEST(AutogradTest, AutoencoderShapedGradient) {
  // The autoencoder's pipeline: matvec -> relu -> matvec -> tanh ->
  // matvec -> weighted MSE, two samples on one tape. The targets are
  // constants (the real model's target is its input, which the
  // perturbation would move too).
  Parameter enc(3, 4);
  Parameter code(2, 3);
  Parameter dec(4, 2);
  Rng rng(12);
  enc.value.FillUniform(rng, 0.6);
  code.value.FillUniform(rng, 0.6);
  dec.value.FillUniform(rng, 0.6);
  CheckLeafGradients(
      [&](FlatTape& t, const std::vector<Vec>& leaves) {
        BuiltGraph g;
        for (const Vec& x : leaves) {
          const VarId xi = t.Input(x);
          const VarId h = t.Relu(t.MatVec(&enc, xi));
          const VarId z = t.Tanh(t.MatVec(&code, h));
          t.AddMseLoss(t.MatVec(&dec, z), {0.5, 0.2, 0.9, 0.4}, 0.5);
          g.leaves.push_back(xi);
        }
        return g;
      },
      {{0.9, 0.1, 0.4, 0.7}, {0.2, 0.8, 0.6, 0.3}}, 1e-6, 1e-4);
}

TEST(AutogradTest, MseLossValueAndSeed) {
  FlatTape tape;
  const VarId y = tape.Leaf({1.0, -2.0});
  const double term = tape.AddMseLoss(y, {0.5, 1.0}, 4.0);
  // 0.5 * 4 * (0.25 + 9) and d/dy = 4 * (y - target).
  EXPECT_DOUBLE_EQ(term, 18.5);
  EXPECT_DOUBLE_EQ(tape.loss(), 18.5);
  ParamGradSink sink;
  tape.Backward(sink);
  EXPECT_DOUBLE_EQ(tape.grad(y)[0], 2.0);
  EXPECT_DOUBLE_EQ(tape.grad(y)[1], -12.0);
}

TEST(AutogradTest, ClearResetsState) {
  FlatTape tape;
  const VarId a = tape.Leaf({1.0});
  tape.AddMseLoss(a, {0.0});
  EXPECT_GT(tape.loss(), 0.0);
  tape.Clear();
  EXPECT_EQ(tape.size(), 0);
  EXPECT_DOUBLE_EQ(tape.loss(), 0.0);
}

TEST(AutogradTest, ZeroGradSkipsPropagation) {
  // Nodes not connected to any loss keep zero gradients.
  FlatTape tape;
  const VarId a = tape.Input({1.0, 2.0});
  const VarId b = tape.Input({3.0, 4.0});
  tape.Relu(b);                 // dangling
  tape.AddMseLoss(a, {0.0, 0.0});
  ParamGradSink sink;
  tape.Backward(sink);
  EXPECT_DOUBLE_EQ(tape.grad(b)[0], 0.0);
  EXPECT_DOUBLE_EQ(tape.grad(b)[1], 0.0);
  EXPECT_NE(tape.grad(a)[0], 0.0);
}

TEST(ParamGradSinkTest, ZeroAllKeepsBuffersAndUntouchedEntriesReadNull) {
  Parameter p(1, 2);
  ParamGradSink sink;
  EXPECT_EQ(sink.Find(&p), nullptr);
  Matrix& buffer = sink.GradFor(&p);
  buffer.At(0, 0) = 3.0;
  ASSERT_EQ(sink.Find(&p), &buffer);
  EXPECT_DOUBLE_EQ(sink.Find(&p)->At(0, 0), 3.0);

  // After ZeroAll the entry survives (no reallocation on the next
  // GradFor) but reads as untouched until something writes it again.
  sink.ZeroAll();
  EXPECT_EQ(sink.Find(&p), nullptr);
  EXPECT_EQ(&sink.GradFor(&p), &buffer);
  EXPECT_DOUBLE_EQ(buffer.At(0, 0), 0.0);  // re-zeroed
  EXPECT_EQ(sink.Find(&p), &buffer);
}

TEST(ParamGradSinkTest, MergeFromFoldsTouchedEntries) {
  Parameter p(1, 2);
  Parameter q(1, 2);
  ParamGradSink a;
  ParamGradSink b;
  a.GradFor(&p).At(0, 0) = 1.0;
  b.GradFor(&p).At(0, 0) = 2.0;
  b.GradFor(&q).At(0, 1) = 7.0;
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.GradFor(&p).At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.GradFor(&q).At(0, 1), 7.0);

  // Zeroed source: merge adds nothing, and untouched source entries
  // are skipped entirely.
  b.ZeroAll();
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.GradFor(&p).At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.GradFor(&q).At(0, 1), 7.0);
}

}  // namespace
}  // namespace gem::math
