#include "math/flat_tape.h"

#include <cmath>

#include "base/check.h"

namespace gem::math {

void FlatTape::Clear() {
  nodes_.clear();
  top_ = 0;
  inputs_pool_.clear();
  coeffs_pool_.clear();
  log_sigmoid_terms_.clear();
  mse_terms_.clear();
  mse_targets_.clear();
  loss_ = 0.0;
}

VarId FlatTape::Push(Op op, int len, bool tracked) {
  Node n;
  n.op = op;
  n.tracked = tracked;
  n.off = top_;
  n.len = len;
  top_ += static_cast<size_t>(len);
  // Past the high-water mark only: a cleared tape writes its next
  // shard's values over the old ones without zero-filling them first.
  if (top_ > values_.size()) values_.resize(top_);
  nodes_.push_back(n);
  return static_cast<VarId>(nodes_.size()) - 1;
}

VarId FlatTape::Leaf(const double* data, size_t n) {
  const VarId id = Push(Op::kLeaf, static_cast<int>(n), false);
  double* out = val(id);
  for (size_t i = 0; i < n; ++i) out[i] = data[i];
  return id;
}

VarId FlatTape::Input(const double* data, size_t n) {
  const VarId id = Leaf(data, n);
  nodes_[id].tracked = true;
  return id;
}

VarId FlatTape::MatVec(Parameter* param, VarId x) {
  GEM_DCHECK(param != nullptr);
  GEM_DCHECK(param->value.cols() == nodes_[x].len);
  const VarId id = Push(Op::kMatVec, param->value.rows(), true);
  Node& n = nodes_[id];
  n.a = x;
  n.param = param;
  // Arena pointers are taken after Push's resize; matvec overwrites the
  // output in full, same as Matrix::MatVec.
  kernels::Active().matvec(param->value.ptr(), param->value.rows(),
                           param->value.cols(), val(x), val(id));
  return id;
}

VarId FlatTape::Concat(VarId a, VarId b) {
  const int la = nodes_[a].len;
  const int lb = nodes_[b].len;
  const VarId id =
      Push(Op::kConcat, la + lb, nodes_[a].tracked || nodes_[b].tracked);
  Node& n = nodes_[id];
  n.a = a;
  n.b = b;
  double* out = val(id);
  const double* va = val(a);
  const double* vb = val(b);
  for (int i = 0; i < la; ++i) out[i] = va[i];
  for (int i = 0; i < lb; ++i) out[la + i] = vb[i];
  return id;
}

VarId FlatTape::WeightedSum(const std::vector<VarId>& inputs,
                            const Vec& coeffs) {
  GEM_CHECK(!inputs.empty());
  GEM_CHECK(inputs.size() == coeffs.size());
  const int len = nodes_[inputs[0]].len;
  bool tracked = false;
  for (const VarId input : inputs) tracked = tracked || nodes_[input].tracked;
  const VarId id = Push(Op::kWeightedSum, len, tracked);
  Node& n = nodes_[id];
  n.inputs_off = static_cast<int>(inputs_pool_.size());
  n.inputs_count = static_cast<int>(inputs.size());
  inputs_pool_.insert(inputs_pool_.end(), inputs.begin(), inputs.end());
  coeffs_pool_.insert(coeffs_pool_.end(), coeffs.begin(), coeffs.end());
  ptr_scratch_.clear();
  for (const VarId input : inputs) ptr_scratch_.push_back(val(input));
  kernels::Active().weighted_sum(val(id), ptr_scratch_.data(),
                                 coeffs_pool_.data() + n.inputs_off,
                                 ptr_scratch_.size(), static_cast<size_t>(len));
  return id;
}

VarId FlatTape::Relu(VarId x) {
  const int len = nodes_[x].len;
  const VarId id = Push(Op::kRelu, len, nodes_[x].tracked);
  nodes_[id].a = x;
  kernels::Active().relu(val(id), val(x), static_cast<size_t>(len));
  return id;
}

VarId FlatTape::Tanh(VarId x) {
  const int len = nodes_[x].len;
  const VarId id = Push(Op::kTanh, len, nodes_[x].tracked);
  nodes_[id].a = x;
  double* out = val(id);
  const double* in = val(x);
  for (int i = 0; i < len; ++i) out[i] = std::tanh(in[i]);
  return id;
}

VarId FlatTape::L2Normalize(VarId x) {
  const int len = nodes_[x].len;
  const VarId id = Push(Op::kL2Normalize, len, nodes_[x].tracked);
  nodes_[id].a = x;
  double* out = val(id);
  const double* in = val(x);
  for (int i = 0; i < len; ++i) out[i] = in[i];
  const kernels::Ops& ops = kernels::Active();
  const double norm =
      std::sqrt(ops.dot(out, out, static_cast<size_t>(len)));
  if (norm > kNormEps) ops.scale(out, 1.0 / norm, static_cast<size_t>(len));
  return id;
}

VarId FlatTape::Dot(VarId a, VarId b) {
  GEM_DCHECK(nodes_[a].len == nodes_[b].len);
  const VarId id =
      Push(Op::kDot, 1, nodes_[a].tracked || nodes_[b].tracked);
  Node& n = nodes_[id];
  n.a = a;
  n.b = b;
  *val(id) =
      kernels::Active().dot(val(a), val(b), static_cast<size_t>(nodes_[a].len));
  return id;
}

double FlatTape::AddLogSigmoidLoss(VarId dot_var, double sign, double weight) {
  GEM_CHECK(nodes_[dot_var].len == 1);
  const double s = values_[nodes_[dot_var].off];
  const double term = -weight * LogSigmoid(sign * s);
  log_sigmoid_terms_.push_back(LogSigmoidTerm{dot_var, sign, weight});
  loss_ += term;
  return term;
}

double FlatTape::AddMseLoss(VarId v, const Vec& target, double weight) {
  const size_t len = static_cast<size_t>(nodes_[v].len);
  GEM_CHECK(target.size() == len);
  const double term =
      0.5 * weight *
      kernels::Active().squared_distance(val(v), target.data(), len);
  mse_terms_.push_back(MseTerm{v, mse_targets_.size(), weight});
  mse_targets_.insert(mse_targets_.end(), target.begin(), target.end());
  loss_ += term;
  return term;
}

void FlatTape::Backward(ParamGradSink& sink) {
  grads_.assign(top_, 0.0);

  // Seed gradients from the loss terms: every log-sigmoid term, then
  // every MSE term, each in the order attached.
  for (const LogSigmoidTerm& t : log_sigmoid_terms_) {
    const double s = values_[nodes_[t.var].off];
    // d/ds [-w log sigmoid(sign*s)] = w * sign * (sigmoid(sign*s) - 1).
    grads_[nodes_[t.var].off] +=
        t.weight * t.sign * (SigmoidScalar(t.sign * s) - 1.0);
  }
  for (const MseTerm& t : mse_terms_) {
    // d/dy [w/2 ||y - target||^2] = w (y - target).
    const Node& n = nodes_[t.var];
    const double* y = values_.data() + n.off;
    const double* target = mse_targets_.data() + t.target_off;
    double* g = grads_.data() + n.off;
    for (int i = 0; i < n.len; ++i) g[i] += t.weight * (y[i] - target[i]);
  }

  const kernels::Ops& ops = kernels::Active();
  // grad(x) += scale * src along an edge into x, skipped when x is
  // untracked (a unary op is tracked exactly when its input is).
  auto add_into = [&](const Node& x, const double* src, double scale) {
    if (!x.tracked) return;
    ops.add_scaled(grads_.data() + x.off, src, scale,
                   static_cast<size_t>(x.len));
  };
  // Reverse topological order == reverse creation order; untracked
  // nodes are skipped.
  for (int id = size() - 1; id >= 0; --id) {
    const Node& n = nodes_[id];
    if (!n.tracked) continue;
    const double* g = grads_.data() + n.off;
    bool all_zero = true;
    for (int i = 0; i < n.len; ++i) {
      if (g[i] != 0.0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) continue;

    switch (n.op) {
      case Op::kLeaf:
        break;
      case Op::kMatVec: {
        // y = W x:  dx += W^T g now, through a zeroed scratch +
        // add_scaled (the summation order the committed goldens pin).
        // dW += g x^T waits in the parameter's list: nothing in the
        // sweep reads dW, and this node's g and x are final.
        const Node& xn = nodes_[n.a];
        DeferOuterProduct(n.param, g, values_.data() + xn.off);
        if (!xn.tracked) break;
        const size_t cols = static_cast<size_t>(xn.len);
        mattvec_scratch_.assign(cols, 0.0);
        ops.mattvec(n.param->value.ptr(), n.len, xn.len, g,
                    mattvec_scratch_.data());
        add_into(xn, mattvec_scratch_.data(), 1.0);
        break;
      }
      case Op::kConcat: {
        const Node& an = nodes_[n.a];
        add_into(an, g, 1.0);
        add_into(nodes_[n.b], g + an.len, 1.0);
        break;
      }
      case Op::kWeightedSum:
        for (int i = 0; i < n.inputs_count; ++i) {
          add_into(nodes_[inputs_pool_[n.inputs_off + i]], g,
                   coeffs_pool_[n.inputs_off + i]);
        }
        break;
      case Op::kRelu: {
        const Node& xn = nodes_[n.a];
        ops.relu_backward(grads_.data() + xn.off, values_.data() + xn.off, g,
                          static_cast<size_t>(n.len));
        break;
      }
      case Op::kTanh: {
        const double* y = values_.data() + n.off;
        double* gx = grads_.data() + nodes_[n.a].off;
        for (int i = 0; i < n.len; ++i) gx[i] += g[i] * (1.0 - y[i] * y[i]);
        break;
      }
      case Op::kL2Normalize: {
        // y = x / ||x||:  dx = (g - y (y . g)) / ||x||.
        const Node& xn = nodes_[n.a];
        const double* x = values_.data() + xn.off;
        const size_t len = static_cast<size_t>(n.len);
        const double norm = std::sqrt(ops.dot(x, x, len));
        if (norm <= kNormEps) {
          add_into(xn, g, 1.0);
          break;
        }
        const double* y = values_.data() + n.off;
        const double yg = ops.dot(y, g, len);
        double* gx = grads_.data() + xn.off;
        for (int i = 0; i < n.len; ++i) {
          gx[i] += (g[i] - y[i] * yg) / norm;
        }
        break;
      }
      case Op::kDot: {
        const Node& an = nodes_[n.a];
        const Node& bn = nodes_[n.b];
        add_into(an, values_.data() + bn.off, g[0]);
        add_into(bn, values_.data() + an.off, g[0]);
        break;
      }
    }
  }

  // Each parameter's dW += sum_j g_j x_j^T in one rank-k update, j in
  // sweep order: every dW element takes the terms add_scaled row by row
  // would have given it, in the same order.
  for (size_t i = 0; i < outer_lists_used_; ++i) {
    OuterList& list = outer_lists_[i];
    Matrix& dw = sink.GradFor(list.param);
    ops.rank_k_update(dw.RowPtr(0), dw.rows(), dw.cols(), list.g.data(),
                      list.x.data(), list.g.size());
  }
  outer_lists_used_ = 0;
}

void FlatTape::DeferOuterProduct(Parameter* param, const double* g,
                                 const double* x) {
  size_t i = 0;
  while (i < outer_lists_used_ && outer_lists_[i].param != param) ++i;
  if (i == outer_lists_used_) {
    if (i == outer_lists_.size()) outer_lists_.emplace_back();
    OuterList& list = outer_lists_[outer_lists_used_++];
    list.param = param;
    list.g.clear();
    list.x.clear();
  }
  outer_lists_[i].g.push_back(g);
  outer_lists_[i].x.push_back(x);
}

}  // namespace gem::math
