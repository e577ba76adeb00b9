#ifndef GEM_MATH_FLAT_TAPE_H_
#define GEM_MATH_FLAT_TAPE_H_

#include <cstddef>
#include <vector>

#include "math/autograd.h"
#include "math/kernels.h"
#include "math/matrix.h"
#include "math/vec.h"

namespace gem::math {

/// Minimal reverse-mode automatic differentiation over vector-valued
/// nodes, the one engine every trained model runs on (BiSAGE, and the
/// GraphSAGE and autoencoder baselines). Supports exactly the ops those
/// models need: matrix-vector products against Parameters,
/// concatenation, constant-coefficient weighted sums, ReLU/tanh,
/// l2-normalization, inner products, and two terminal losses
/// (negative-sampling log-sigmoid and MSE). Clear(), build the forward
/// ops, attach losses, then call Backward().
///
/// Gradients flow only where something is learned. A node is
/// GRAD-TRACKED when a Parameter (or an Input leaf) lies beneath it:
/// MatVec and Input set the mark, every other op takes it from its
/// inputs, and a constant Leaf never carries it. Backward skips every
/// untracked node and every edge into one, so a MatVec over constants
/// (BiSAGE's layer 1, whose inputs are fixed initial embeddings) costs
/// only its dW += g x^T, never the W^T g that nothing reads. Every
/// parameter gradient gets the bits an all-tracked program gives it:
/// no tracked node reads an untracked node's gradient, and the tracked
/// nodes accumulate in the same order.
///
/// A MatVec's dW += g x^T is deferred: the sweep appends (g, x) to its
/// Parameter's list, and after the sweep each list is applied with one
/// register-blocked rank-k kernel call. Nothing in the sweep reads dW,
/// and the kernel gives every dW element the terms of row-by-row
/// add_scaled calls in sweep order, so the bits are those of applying
/// each term when its node is reached.
///
/// Every value and gradient lives in two reusable 32-byte-aligned
/// arenas addressed by (offset, length). Clear() only resets the value
/// arena's top, so a cleared tape rebuilds the next shard's graph over
/// the old values with zero allocations (and no zero-fill) in the
/// steady state; Backward zeroes the gradient arena up to that top.
///
/// Numerics contract: each forward and backward step routes through the
/// dispatched kernels (or fixed scalar expressions) in a fixed order,
/// so a given op sequence yields the same bits on every run and thread
/// count for a given kernel backend. The committed golden fixtures
/// (BiSAGE scores, drift scores, the baseline embedders) pin those
/// bits; autograd_test checks every op's gradient by finite
/// differences.
class FlatTape {
 public:
  FlatTape() = default;
  FlatTape(const FlatTape&) = delete;
  FlatTape& operator=(const FlatTape&) = delete;

  /// Drops all nodes and pending losses, keeping arena capacity.
  void Clear();

  /// Creates a constant leaf copying n doubles from data. Backward
  /// computes no gradient into it.
  VarId Leaf(const double* data, size_t n);
  VarId Leaf(const Vec& v) { return Leaf(v.data(), v.size()); }

  /// Creates a grad-tracked leaf copying n doubles from data: Backward
  /// computes its gradient. Gradient checks read it, and a program
  /// built from Inputs prunes nothing, so it is also the unpruned
  /// reference for Leaf-built programs.
  VarId Input(const double* data, size_t n);
  VarId Input(const Vec& v) { return Input(v.data(), v.size()); }

  /// y = param.value * x.
  VarId MatVec(Parameter* param, VarId x);

  /// y = [a; b].
  VarId Concat(VarId a, VarId b);

  /// y = sum_i coeffs[i] * inputs[i]; coefficients are constants.
  VarId WeightedSum(const std::vector<VarId>& inputs, const Vec& coeffs);

  VarId Relu(VarId x);
  VarId Tanh(VarId x);

  /// y = x / max(||x||, kNormEps); a zero vector passes through.
  VarId L2Normalize(VarId x);

  /// Size-1 node holding a . b.
  VarId Dot(VarId a, VarId b);

  /// Adds the loss term -weight * log(sigmoid(sign * s)) where s is the
  /// (size-1) value of dot_var. Returns the term's value.
  double AddLogSigmoidLoss(VarId dot_var, double sign, double weight = 1.0);

  /// Adds the loss term weight * 0.5 * ||value(v) - target||^2 (target
  /// is copied). Returns the term's value.
  double AddMseLoss(VarId v, const Vec& target, double weight = 1.0);

  /// Total of the loss terms added since the last Clear().
  double loss() const { return loss_; }

  /// Reverse-mode accumulation from all attached loss terms. Parameter
  /// gradients add into sink.GradFor(param). Node gradients exist only
  /// on grad-tracked nodes: they land in the grad arena and stay valid
  /// until the next forward op or Clear(). An untracked node's grad()
  /// reads zero, or just the seed of a loss term attached to it
  /// directly.
  void Backward(ParamGradSink& sink);

  /// Borrowed pointers into the arenas (invalidated by further forward
  /// ops and by Clear; grad() additionally requires a prior Backward).
  const double* value(VarId id) const {
    return values_.data() + nodes_[id].off;
  }
  const double* grad(VarId id) const { return grads_.data() + nodes_[id].off; }
  int size_of(VarId id) const { return nodes_[id].len; }

  int size() const { return static_cast<int>(nodes_.size()); }

 private:
  enum class Op : unsigned char {
    kLeaf,
    kMatVec,
    kConcat,
    kWeightedSum,
    kRelu,
    kTanh,
    kL2Normalize,
    kDot,
  };

  struct Node {
    Op op;
    bool tracked = false;  // a Parameter or an Input lies beneath it
    VarId a = -1;
    VarId b = -1;
    int inputs_off = 0;   // kWeightedSum: offset into inputs_/coeffs_ pools
    int inputs_count = 0; // kWeightedSum
    Parameter* param = nullptr;  // kMatVec
    size_t off = 0;              // value/grad arena offset
    int len = 0;
  };

  struct LogSigmoidTerm {
    VarId var;
    double sign;
    double weight;
  };

  struct MseTerm {
    VarId var;
    size_t target_off;  // into mse_targets_, node's len doubles
    double weight;
  };

  /// The (g, x) pairs of one Parameter's deferred dW += g x^T terms,
  /// in sweep order.
  struct OuterList {
    Parameter* param = nullptr;
    std::vector<const double*> g;
    std::vector<const double*> x;
  };

  /// Appends a node with len doubles of arena storage (value
  /// uninitialized; every op overwrites it in full).
  VarId Push(Op op, int len, bool tracked);

  /// Appends (g, x) to param's list, opening the list on first use.
  void DeferOuterProduct(Parameter* param, const double* g, const double* x);

  double* val(VarId id) { return values_.data() + nodes_[id].off; }

  std::vector<Node> nodes_;
  /// Values of the current nodes fill [0, top_); values_ only grows, to
  /// the largest top_ seen.
  kernels::AlignedVec values_;
  size_t top_ = 0;
  kernels::AlignedVec grads_;
  /// Backward's per-Parameter lists, first-touch order; the first
  /// outer_lists_used_ are live. Kept across calls for their capacity.
  std::vector<OuterList> outer_lists_;
  size_t outer_lists_used_ = 0;
  std::vector<VarId> inputs_pool_;    // kWeightedSum inputs, by inputs_off
  std::vector<double> coeffs_pool_;   // parallel to inputs_pool_
  std::vector<const double*> ptr_scratch_;
  Vec mattvec_scratch_;  // zeroed per MatVec backward
  std::vector<LogSigmoidTerm> log_sigmoid_terms_;
  std::vector<MseTerm> mse_terms_;
  std::vector<double> mse_targets_;
  double loss_ = 0.0;
};

}  // namespace gem::math

#endif  // GEM_MATH_FLAT_TAPE_H_
