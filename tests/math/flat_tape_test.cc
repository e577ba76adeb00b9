#include "math/flat_tape.h"

#include <gtest/gtest.h>

#include <vector>

#include "math/autograd.h"
#include "math/rng.h"
#include "math/vec.h"

namespace gem::math {
namespace {

// FlatTape's numerics contract is run-to-run bit-identity for a given
// op sequence, whatever the tape's history or the gradient destination:
// every comparison below is EXPECT_EQ on doubles, not NEAR. Gradient
// correctness is checked by finite differences in autograd_test.

Vec RandomVec(Rng& rng, int n) {
  Vec v(n);
  for (double& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

void FillParam(Parameter& p, Rng& rng) {
  for (int r = 0; r < p.value.rows(); ++r) {
    for (int c = 0; c < p.value.cols(); ++c) {
      p.value.At(r, c) = rng.Uniform(-0.5, 0.5);
    }
  }
}

/// Builds a program over every op (leaves -> weighted sums -> concat
/// -> matvec -> relu / tanh -> l2norm -> dots -> log-sigmoid and MSE
/// losses); returns the ids of the leaves and the final vars so callers
/// can compare values and gradients position by position.
struct Program {
  std::vector<VarId> leaves;
  VarId out_a;
  VarId out_b;
};

Program BuildProgram(FlatTape& tape, const std::vector<Vec>& inputs,
                     const Vec& coeffs, Parameter* w1, Parameter* w2) {
  Program prog;
  for (const Vec& v : inputs) prog.leaves.push_back(tape.Leaf(v));
  const VarId agg_a =
      tape.WeightedSum({prog.leaves[0], prog.leaves[1], prog.leaves[2]},
                       coeffs);
  const VarId agg_b =
      tape.WeightedSum({prog.leaves[2], prog.leaves[3], prog.leaves[0]},
                       coeffs);
  const VarId lin_a = tape.MatVec(w1, tape.Concat(prog.leaves[0], agg_a));
  const VarId lin_b = tape.MatVec(w2, tape.Concat(prog.leaves[1], agg_b));
  prog.out_a = tape.L2Normalize(tape.Relu(lin_a));
  prog.out_b = tape.L2Normalize(tape.Tanh(lin_b));
  tape.AddLogSigmoidLoss(tape.Dot(prog.out_a, prog.out_b), +1.0);
  tape.AddLogSigmoidLoss(tape.Dot(prog.out_b, prog.out_a), -1.0);
  // The MSE seed lands on a node the log-sigmoid terms also reach.
  tape.AddMseLoss(prog.out_b, inputs[3], 0.25);
  return prog;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(a.At(r, c), b.At(r, c)) << "at (" << r << "," << c << ")";
    }
  }
}

class FlatTapeProgramTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    for (int i = 0; i < 4; ++i) inputs_.push_back(RandomVec(rng, kDim));
    coeffs_ = {0.5, 0.3, 0.2};
    w1_ = std::make_unique<Parameter>(kDim, 2 * kDim);
    w2_ = std::make_unique<Parameter>(kDim, 2 * kDim);
    FillParam(*w1_, rng);
    FillParam(*w2_, rng);
  }

  static constexpr int kDim = 8;
  std::vector<Vec> inputs_;
  Vec coeffs_;
  std::unique_ptr<Parameter> w1_;
  std::unique_ptr<Parameter> w2_;
};

TEST_F(FlatTapeProgramTest, NullSinkWritesWhatASinkReceives) {
  FlatTape with_sink;
  BuildProgram(with_sink, inputs_, coeffs_, w1_.get(), w2_.get());
  ParamGradSink sink;
  with_sink.Backward(&sink);

  FlatTape direct;
  BuildProgram(direct, inputs_, coeffs_, w1_.get(), w2_.get());
  direct.Backward();
  ExpectBitIdentical(sink.GradFor(w1_.get()), w1_->grad);
  ExpectBitIdentical(sink.GradFor(w2_.get()), w2_->grad);
  w1_->ZeroGrad();
  w2_->ZeroGrad();

  // Node gradients do not depend on where parameter gradients go.
  for (VarId id = 0; id < direct.size(); ++id) {
    for (int i = 0; i < direct.size_of(id); ++i) {
      EXPECT_EQ(with_sink.grad(id)[i], direct.grad(id)[i])
          << "node " << id << " lane " << i;
    }
  }
}

TEST_F(FlatTapeProgramTest, ReuseAfterClearIsBitIdenticalToFresh) {
  FlatTape reused;
  // Warm it with a different program shape first, MSE terms included:
  // Clear() must drop them and their targets.
  const VarId warm = reused.Leaf(inputs_[1]);
  reused.AddLogSigmoidLoss(reused.Dot(reused.Leaf(inputs_[0]), warm), +1.0);
  reused.AddMseLoss(warm, inputs_[2]);
  reused.AddMseLoss(reused.Tanh(warm), inputs_[3], 2.0);
  ParamGradSink scratch;
  reused.Backward(&scratch);
  reused.Clear();

  FlatTape fresh;
  BuildProgram(reused, inputs_, coeffs_, w1_.get(), w2_.get());
  BuildProgram(fresh, inputs_, coeffs_, w1_.get(), w2_.get());
  ASSERT_EQ(reused.size(), fresh.size());
  for (VarId id = 0; id < fresh.size(); ++id) {
    for (int i = 0; i < fresh.size_of(id); ++i) {
      EXPECT_EQ(fresh.value(id)[i], reused.value(id)[i]);
    }
  }
  EXPECT_EQ(fresh.loss(), reused.loss());

  ParamGradSink a;
  ParamGradSink b;
  fresh.Backward(&a);
  reused.Backward(&b);
  ExpectBitIdentical(a.GradFor(w1_.get()), b.GradFor(w1_.get()));
  ExpectBitIdentical(a.GradFor(w2_.get()), b.GradFor(w2_.get()));
  for (VarId id = 0; id < fresh.size(); ++id) {
    for (int i = 0; i < fresh.size_of(id); ++i) {
      EXPECT_EQ(fresh.grad(id)[i], reused.grad(id)[i]);
    }
  }
}

TEST(FlatTapeOpsTest, ZeroVectorPassesThroughL2Normalize) {
  // The kNormEps rule: forward is the identity, backward propagates the
  // gradient unchanged.
  FlatTape flat;
  const Vec zeros(4, 0.0);
  const Vec other{1.0, -2.0, 0.5, 3.0};

  const VarId leaf = flat.Leaf(zeros);
  const VarId fz = flat.L2Normalize(leaf);
  const VarId fo = flat.Leaf(other);
  flat.AddLogSigmoidLoss(flat.Dot(fz, fo), +1.0);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(flat.value(fz)[i], 0.0);
  EXPECT_EQ(flat.loss(), -LogSigmoid(0.0));

  // d/ds of -log sigmoid(s) at s = 0 is exactly -0.5.
  flat.Backward(nullptr);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(flat.grad(leaf)[i], -0.5 * other[i]) << "lane " << i;
  }
}

TEST(FlatTapeOpsTest, SingleLaneProgram) {
  FlatTape flat;
  Parameter w(1, 2);
  w.value.At(0, 0) = 0.7;
  w.value.At(0, 1) = -0.4;
  const Vec a{0.3};
  const Vec b{-1.2};

  const VarId y = flat.MatVec(&w, flat.Concat(flat.Leaf(a), flat.Leaf(b)));
  flat.AddLogSigmoidLoss(flat.Dot(y, flat.Leaf(a)), -1.0);
  const double wy = 0.7 * 0.3 + -0.4 * -1.2;
  EXPECT_DOUBLE_EQ(flat.value(y)[0], wy);
  EXPECT_DOUBLE_EQ(flat.loss(), -LogSigmoid(-wy * 0.3));

  // dL/ds = 1 - sigmoid(-s) for L = -log sigmoid(-s), s = y * a.
  ParamGradSink sink;
  flat.Backward(&sink);
  const double gy = (1.0 - SigmoidScalar(-wy * 0.3)) * 0.3;
  EXPECT_DOUBLE_EQ(sink.GradFor(&w).At(0, 0), gy * 0.3);
  EXPECT_DOUBLE_EQ(sink.GradFor(&w).At(0, 1), gy * -1.2);
}

TEST(FlatTapeOpsTest, PointerLeafMatchesVecLeaf) {
  FlatTape a;
  FlatTape b;
  const Vec v{1.5, -0.25, 3.0};
  const VarId ia = a.Leaf(v);
  const VarId ib = b.Leaf(v.data(), v.size());
  for (int i = 0; i < 3; ++i) EXPECT_EQ(a.value(ia)[i], b.value(ib)[i]);
}

}  // namespace
}  // namespace gem::math
