#include "math/flat_tape.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "math/autograd.h"
#include "math/kernels.h"
#include "math/rng.h"
#include "math/vec.h"

namespace gem::math {
namespace {

// FlatTape's numerics contract is run-to-run bit-identity for a given
// op sequence, whatever the tape's history: every comparison below is
// EXPECT_EQ on doubles, not NEAR. Gradient
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
/// can compare values and gradients position by position. With
/// constant Leafs, Backward prunes everything below the two MatVecs;
/// with Inputs it runs the full backward, W^T g included.
struct Program {
  std::vector<VarId> leaves;
  VarId out_a;
  VarId out_b;
};

Program BuildProgram(FlatTape& tape, const std::vector<Vec>& inputs,
                     const Vec& coeffs, Parameter* w1, Parameter* w2,
                     bool tracked_leaves) {
  Program prog;
  for (const Vec& v : inputs) {
    prog.leaves.push_back(tracked_leaves ? tape.Input(v) : tape.Leaf(v));
  }
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

TEST_F(FlatTapeProgramTest, ReuseAfterClearIsBitIdenticalToFresh) {
  for (const bool tracked_leaves : {false, true}) {
    SCOPED_TRACE(tracked_leaves ? "Input leaves" : "constant leaves");
    FlatTape reused;
    // Warm it with a different program shape first, MSE terms and a
    // MatVec over Inputs included, so its backward fills the grad arena
    // and the W^T g scratch: Clear() must drop the terms and their
    // targets, and no leftover may reach the next Backward.
    const VarId warm = reused.Input(inputs_[1]);
    reused.AddLogSigmoidLoss(reused.Dot(reused.Input(inputs_[0]), warm),
                             +1.0);
    reused.AddMseLoss(warm, inputs_[2]);
    reused.AddMseLoss(reused.Tanh(warm), inputs_[3], 2.0);
    const VarId warm_lin = reused.MatVec(
        w1_.get(), reused.Concat(warm, reused.Input(inputs_[2])));
    reused.AddMseLoss(warm_lin, inputs_[0], 0.5);
    ParamGradSink scratch;
    reused.Backward(scratch);
    reused.Clear();

    FlatTape fresh;
    BuildProgram(reused, inputs_, coeffs_, w1_.get(), w2_.get(),
                 tracked_leaves);
    BuildProgram(fresh, inputs_, coeffs_, w1_.get(), w2_.get(),
                 tracked_leaves);
    ASSERT_EQ(reused.size(), fresh.size());
    for (VarId id = 0; id < fresh.size(); ++id) {
      for (int i = 0; i < fresh.size_of(id); ++i) {
        EXPECT_EQ(fresh.value(id)[i], reused.value(id)[i]);
      }
    }
    EXPECT_EQ(fresh.loss(), reused.loss());

    ParamGradSink a;
    ParamGradSink b;
    fresh.Backward(a);
    reused.Backward(b);
    ExpectBitIdentical(a.GradFor(w1_.get()), b.GradFor(w1_.get()));
    ExpectBitIdentical(a.GradFor(w2_.get()), b.GradFor(w2_.get()));
    for (VarId id = 0; id < fresh.size(); ++id) {
      for (int i = 0; i < fresh.size_of(id); ++i) {
        EXPECT_EQ(fresh.grad(id)[i], reused.grad(id)[i]);
      }
    }
  }
}

TEST(FlatTapeOpsTest, ZeroVectorPassesThroughL2Normalize) {
  // The kNormEps rule: forward is the identity, backward propagates the
  // gradient unchanged.
  FlatTape flat;
  const Vec zeros(4, 0.0);
  const Vec other{1.0, -2.0, 0.5, 3.0};

  const VarId leaf = flat.Input(zeros);
  const VarId fz = flat.L2Normalize(leaf);
  const VarId fo = flat.Leaf(other);
  flat.AddLogSigmoidLoss(flat.Dot(fz, fo), +1.0);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(flat.value(fz)[i], 0.0);
  EXPECT_EQ(flat.loss(), -LogSigmoid(0.0));

  // d/ds of -log sigmoid(s) at s = 0 is exactly -0.5.
  ParamGradSink sink;
  flat.Backward(sink);
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
  flat.Backward(sink);
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

/// A two-layer BiSAGE-shaped program (DESIGN.md §4) over a 7-node
/// bipartite graph. Records 0-2 and MACs 4-6 share neighbors, so the
/// memo hands several parents one child's vars; record 3 is isolated,
/// so both of its layers aggregate a zero leaf. One top-layer MatVec
/// feeds nothing, so its gradient is all zero. Built from constant
/// Leafs, Backward prunes every layer-1 W^T g and everything below it;
/// built from Inputs, it prunes nothing.
class BiSageShapedProgram {
 public:
  static constexpr int kDim = 6;
  static constexpr int kLayers = 2;

  /// A MatVec node, its Parameter and its input.
  struct MatVecNode {
    Parameter* param;
    VarId node;
    VarId input;
  };

  BiSageShapedProgram() {
    Rng rng(31);
    for (int node = 0; node < kNodes; ++node) {
      h0_.push_back(RandomVec(rng, kDim));
      l0_.push_back(RandomVec(rng, kDim));
    }
    for (int k = 0; k < kLayers; ++k) {
      w_h_.push_back(std::make_unique<Parameter>(kDim, 2 * kDim));
      w_l_.push_back(std::make_unique<Parameter>(kDim, 2 * kDim));
      FillParam(*w_h_.back(), rng);
      FillParam(*w_l_.back(), rng);
    }
  }

  std::vector<Parameter*> params() const {
    return {w_h_[0].get(), w_l_[0].get(), w_h_[1].get(), w_l_[1].get()};
  }

  /// Builds the program and its walk-pair losses on a cleared tape;
  /// returns the ids of the layer-0 rows and zero aggregates.
  std::vector<VarId> Build(FlatTape& tape, bool tracked_leaves) {
    tape.Clear();
    memo_.clear();
    leaves_.clear();
    matvecs_.clear();
    tracked_leaves_ = tracked_leaves;
    // (x, y, sign): positive walk pairs, then negatives.
    const int pairs[][3] = {{0, 4, +1}, {1, 5, +1}, {4, 2, +1}, {3, 6, +1},
                            {0, 5, -1}, {3, 4, -1}, {2, 6, -1}};
    for (const auto& [x, y, sign] : pairs) {
      const NodeVars vx = Node(tape, x, kLayers);
      const NodeVars vy = Node(tape, y, kLayers);
      tape.AddLogSigmoidLoss(tape.Dot(vx.h, vy.l), sign);
      tape.AddLogSigmoidLoss(tape.Dot(vx.l, vy.h), sign);
      if (x == 1) {
        // Mid-program, on a shared top-layer parameter: no loss reads
        // this MatVec, so Backward must skip its all-zero gradient.
        AddMatVec(tape, w_h_[kLayers - 1].get(), tape.Concat(vx.h, vy.l));
      }
    }
    return leaves_;
  }

  /// Every MatVec of the last Build, in creation order.
  const std::vector<MatVecNode>& matvecs() const { return matvecs_; }

 private:
  static constexpr int kNodes = 7;

  struct NodeVars {
    VarId h;
    VarId l;
  };

  VarId Row(FlatTape& tape, const Vec& v) {
    const VarId id = tracked_leaves_ ? tape.Input(v) : tape.Leaf(v);
    leaves_.push_back(id);
    return id;
  }

  VarId AddMatVec(FlatTape& tape, Parameter* param, VarId input) {
    const VarId id = tape.MatVec(param, input);
    matvecs_.push_back(MatVecNode{param, id, input});
    return id;
  }

  NodeVars Node(FlatTape& tape, int node, int layer) {
    const auto it = memo_.find({node, layer});
    if (it != memo_.end()) return it->second;
    NodeVars vars;
    if (layer == 0) {
      vars.h = Row(tape, h0_[node]);
      vars.l = Row(tape, l0_[node]);
    } else {
      const NodeVars self = Node(tape, node, layer - 1);
      // Sampled with replacement, as BiSAGE samples: MAC 4 twice.
      static const std::vector<int> kNeighbors[kNodes] = {
          {4, 4, 5}, {4, 6}, {5, 6, 4}, {}, {0, 1, 2}, {2, 0}, {1, 2}};
      const std::vector<int>& sampled = kNeighbors[node];
      VarId h_agg;
      VarId l_agg;
      if (sampled.empty()) {
        const Vec zeros(kDim, 0.0);
        h_agg = Row(tape, zeros);
        l_agg = Row(tape, zeros);
      } else {
        std::vector<VarId> neighbor_l;
        std::vector<VarId> neighbor_h;
        Vec coeffs;
        for (size_t i = 0; i < sampled.size(); ++i) {
          const NodeVars child = Node(tape, sampled[i], layer - 1);
          neighbor_l.push_back(child.l);
          neighbor_h.push_back(child.h);
          coeffs.push_back((1.0 + static_cast<double>(i)) /
                           static_cast<double>(sampled.size() * 2));
        }
        h_agg = tape.WeightedSum(neighbor_l, coeffs);
        l_agg = tape.WeightedSum(neighbor_h, coeffs);
      }
      const VarId h_lin = AddMatVec(tape, w_h_[layer - 1].get(),
                                    tape.Concat(self.h, h_agg));
      const VarId l_lin = AddMatVec(tape, w_l_[layer - 1].get(),
                                    tape.Concat(self.l, l_agg));
      if (layer == kLayers) {
        vars.h = tape.L2Normalize(h_lin);
        vars.l = tape.L2Normalize(l_lin);
      } else {
        vars.h = tape.L2Normalize(tape.Relu(h_lin));
        vars.l = tape.L2Normalize(tape.Relu(l_lin));
      }
    }
    memo_.emplace(std::make_pair(node, layer), vars);
    return vars;
  }

  std::vector<Vec> h0_;
  std::vector<Vec> l0_;
  std::vector<std::unique_ptr<Parameter>> w_h_;
  std::vector<std::unique_ptr<Parameter>> w_l_;
  std::map<std::pair<int, int>, NodeVars> memo_;
  std::vector<VarId> leaves_;
  std::vector<MatVecNode> matvecs_;
  bool tracked_leaves_ = false;
};

TEST(FlatTapePruningTest, BiSageShapedProgramMatchesUnprunedReference) {
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::Avx2Available()) backends.push_back(kernels::Backend::kAvx2);
  for (const kernels::Backend backend : backends) {
    SCOPED_TRACE(kernels::BackendName(backend));
    const kernels::Backend previous = kernels::ForceBackendForTest(backend);
    BiSageShapedProgram program;

    FlatTape pruned;
    const std::vector<VarId> constants = program.Build(pruned, false);
    ParamGradSink pruned_sink;
    pruned.Backward(pruned_sink);

    FlatTape reference;
    const std::vector<VarId> inputs = program.Build(reference, true);
    ParamGradSink reference_sink;
    reference.Backward(reference_sink);

    ASSERT_EQ(pruned.size(), reference.size());
    EXPECT_EQ(pruned.loss(), reference.loss());
    for (Parameter* param : program.params()) {
      ExpectBitIdentical(pruned_sink.GradFor(param),
                         reference_sink.GradFor(param));
    }
    // The reference really did the work the pruned tape skips.
    bool any_input_grad = false;
    for (size_t i = 0; i < constants.size(); ++i) {
      for (int lane = 0; lane < pruned.size_of(constants[i]); ++lane) {
        EXPECT_EQ(pruned.grad(constants[i])[lane], 0.0);
        any_input_grad =
            any_input_grad || reference.grad(inputs[i])[lane] != 0.0;
      }
    }
    EXPECT_TRUE(any_input_grad);
    kernels::ForceBackendForTest(previous);
  }
}

// Backward defers each MatVec's dW += g x^T and applies a parameter's
// terms with one rank-k update. The reference recursion applies them as
// the sweep reaches each node: one add_scaled per row, the parameter's
// MatVec nodes in reverse creation order, skipping a node whose
// gradient is all zero. The sink must hold exactly those bits, on the
// pruned (constant-leaf) and the full (Input-leaf) backward alike.
TEST(FlatTapeDeferredOuterTest, DwMatchesRowByRowReferenceRecursion) {
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::Avx2Available()) backends.push_back(kernels::Backend::kAvx2);
  for (const kernels::Backend backend : backends) {
    SCOPED_TRACE(kernels::BackendName(backend));
    const kernels::Backend previous = kernels::ForceBackendForTest(backend);
    const kernels::Ops& ops = kernels::Active();
    BiSageShapedProgram program;
    for (const bool tracked_leaves : {false, true}) {
      SCOPED_TRACE(tracked_leaves ? "Input leaves" : "constant leaves");
      FlatTape tape;
      program.Build(tape, tracked_leaves);
      ParamGradSink sink;
      tape.Backward(sink);

      int zero_nodes = 0;
      for (Parameter* param : program.params()) {
        const int rows = param->value.rows();
        const size_t cols = static_cast<size_t>(param->value.cols());
        Matrix want(rows, param->value.cols());
        int terms = 0;
        const auto& matvecs = program.matvecs();
        for (auto it = matvecs.rbegin(); it != matvecs.rend(); ++it) {
          if (it->param != param) continue;
          const double* g = tape.grad(it->node);
          if (std::all_of(g, g + rows, [](double v) { return v == 0.0; })) {
            ++zero_nodes;
            continue;
          }
          for (int r = 0; r < rows; ++r) {
            ops.add_scaled(want.RowPtr(r), tape.value(it->input), g[r], cols);
          }
          ++terms;
        }
        // Several terms per element, so their order reaches the bits.
        EXPECT_GE(terms, 3);
        ExpectBitIdentical(sink.GradFor(param), want);
      }
      // The dangling MatVec at least (a ReLU can zero others).
      EXPECT_GE(zero_nodes, 1);
    }
    kernels::ForceBackendForTest(previous);
  }
}

}  // namespace
}  // namespace gem::math
