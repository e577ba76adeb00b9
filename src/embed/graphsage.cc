#include "embed/graphsage.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "math/kernels.h"
#include "math/optimizer.h"
#include "math/vec.h"

namespace gem::embed {
namespace {

long MemoKey(graph::NodeId node, int layer, int num_layers) {
  return static_cast<long>(node) * (num_layers + 1) + layer;
}

}  // namespace

GraphSage::GraphSage(GraphSageConfig config)
    : config_(std::move(config)), init_rng_(config_.seed ^ 0x6A5E0ULL) {
  GEM_CHECK(config_.dimension > 0);
  GEM_CHECK(static_cast<int>(config_.fanouts.size()) == config_.num_layers);
  table_ = math::Matrix(0, config_.dimension);
  math::Rng weight_rng(config_.seed);
  for (int k = 0; k < config_.num_layers; ++k) {
    weights_.push_back(std::make_unique<math::Parameter>(
        config_.dimension, 2 * config_.dimension));
    weights_.back()->value.FillGlorot(weight_rng);
  }
}

void GraphSage::EnsureCapacity(const graph::BipartiteGraph& graph) {
  const int d = config_.dimension;
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  while (table_.rows() < graph.num_nodes()) {
    const graph::NodeId node = table_.rows();
    math::Vec row(d, 0.0);
    // Same input convention as BiSAGE: MAC nodes carry fixed random
    // identity features, record nodes derive everything from their
    // neighborhoods (a random record feature would be pure noise for
    // inductive inference).
    if (graph.type(node) == graph::NodeType::kMac) {
      for (int i = 0; i < d; ++i) row[i] = init_rng_.Uniform(-scale, scale);
    }
    table_.AppendRow(row);
  }
}

math::VarId GraphSage::BuildNodeVar(
    math::FlatTape& tape, const graph::Sampler& sampler,
    graph::NodeId node, int layer, math::Rng& rng,
    std::unordered_map<long, math::VarId>& memo) const {
  const long key = MemoKey(node, layer, config_.num_layers);
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;

  math::VarId var;
  if (layer == 0) {
    var = tape.Leaf(table_.RowPtr(node),
                    static_cast<size_t>(config_.dimension));
  } else {
    const math::VarId self =
        BuildNodeVar(tape, sampler, node, layer - 1, rng, memo);
    const int fanout = config_.fanouts[config_.num_layers - layer];
    std::vector<graph::Neighbor> sampled;
    sampler.SampleNeighbors(node, fanout, rng, sampled);
    math::VarId agg;
    if (sampled.empty()) {
      agg = tape.Leaf(math::Vec(config_.dimension, 0.0));
    } else {
      std::vector<math::VarId> children;
      children.reserve(sampled.size());
      for (const graph::Neighbor& nb : sampled) {
        children.push_back(
            BuildNodeVar(tape, sampler, nb.node, layer - 1, rng, memo));
      }
      // MEAN aggregator.
      const math::Vec coeffs(children.size(),
                             1.0 / static_cast<double>(children.size()));
      agg = tape.WeightedSum(children, coeffs);
    }
    // Linear top layer (no ReLU), matching BiSAGE: keeps embeddings
    // from collapsing into the positive orthant.
    const math::VarId lin =
        tape.MatVec(weights_[layer - 1].get(), tape.Concat(self, agg));
    var = layer == config_.num_layers ? tape.L2Normalize(lin)
                                      : tape.L2Normalize(tape.Relu(lin));
  }
  memo.emplace(key, var);
  return var;
}

Status GraphSage::Train(const graph::BipartiteGraph& graph) {
  if (trained_) {
    return Status::FailedPrecondition(
        "model is already trained; train a fresh model instead");
  }
  if (graph.num_nodes() == 0) {
    return Status::FailedPrecondition("graph is empty");
  }
  EnsureCapacity(graph);
  // Uniform sampling and walks (homogeneous treatment: GraphSAGE
  // ignores edge weights).
  const graph::Sampler sampler(graph, /*weighted=*/false);
  math::Adam adam(config_.learning_rate);
  for (const auto& w : weights_) adam.Register(w.get());
  math::Rng rng(config_.seed);

  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (graph::NodeId node = 0; node < graph.num_nodes(); ++node) {
    if (graph.degree(node) == 0) continue;
    for (int w = 0; w < config_.walks_per_node; ++w) {
      const std::vector<graph::NodeId> walk =
          sampler.RandomWalk(node, config_.walk_length, rng);
      for (size_t j = 0; j + 1 < walk.size(); ++j) {
        pairs.emplace_back(walk[j], walk[j + 1]);
      }
    }
  }
  if (pairs.empty()) {
    return Status::FailedPrecondition("graph has no edges to walk");
  }

  math::FlatTape tape;
  math::ParamGradSink grads;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(pairs);
    double epoch_loss = 0.0;
    long loss_terms = 0;
    size_t index = 0;
    while (index < pairs.size()) {
      tape.Clear();
      std::unordered_map<long, math::VarId> memo;
      const size_t end = std::min(
          pairs.size(), index + static_cast<size_t>(config_.batch_pairs));
      for (; index < end; ++index) {
        const auto [x, y] = pairs[index];
        const math::VarId vx =
            BuildNodeVar(tape, sampler, x, config_.num_layers, rng, memo);
        const math::VarId vy =
            BuildNodeVar(tape, sampler, y, config_.num_layers, rng, memo);
        epoch_loss += tape.AddLogSigmoidLoss(tape.Dot(vx, vy), +1.0);
        ++loss_terms;
        for (int n = 0; n < config_.num_negatives; ++n) {
          const graph::NodeId z = sampler.SampleNegative(rng);
          const math::VarId vz =
              BuildNodeVar(tape, sampler, z, config_.num_layers, rng, memo);
          epoch_loss += tape.AddLogSigmoidLoss(tape.Dot(vx, vz), -1.0);
          ++loss_terms;
        }
      }
      tape.Backward(grads);
      adam.Step(grads);
      grads.ZeroAll();
    }
    last_epoch_loss_ = epoch_loss / static_cast<double>(loss_terms);
  }
  trained_ = true;
  return Status::Ok();
}

math::Vec GraphSage::InferNode(const graph::BipartiteGraph& graph,
                               graph::NodeId node, int layer,
                               std::unordered_map<long, math::Vec>& memo) const {
  const long key = MemoKey(node, layer, config_.num_layers);
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;

  math::Vec out;
  if (layer == 0) {
    out = table_.Row(node);
  } else {
    const math::Vec self = InferNode(graph, node, layer - 1, memo);
    // Full-neighborhood MEAN at inference (uniform weights — the
    // homogeneous treatment ignores edge weights by design).
    std::vector<graph::NodeId> sampled;
    for (const graph::Neighbor& nb : graph.neighbors(node)) {
      sampled.push_back(nb.node);
    }
    math::Vec agg(config_.dimension, 0.0);
    if (!sampled.empty()) {
      const double coeff = 1.0 / static_cast<double>(sampled.size());
      for (const graph::NodeId nb : sampled) {
        math::AddScaled(agg, InferNode(graph, nb, layer - 1, memo), coeff);
      }
    }
    out = weights_[layer - 1]->value.MatVec(math::Concat(self, agg));
    if (layer != config_.num_layers) {  // linear top layer
      math::kernels::Active().relu(out.data(), out.data(), out.size());
    }
    math::NormalizeL2(out);
  }
  memo.emplace(key, out);
  return out;
}

math::Vec GraphSage::Embedding(const graph::BipartiteGraph& graph,
                               graph::NodeId node) const {
  GEM_CHECK(node >= 0 && node < graph.num_nodes());
  GEM_CHECK(table_.rows() >= graph.num_nodes());
  std::unordered_map<long, math::Vec> memo;
  return InferNode(graph, node, config_.num_layers, memo);
}

GraphSageEmbedder::GraphSageEmbedder(GraphSageConfig config,
                                     graph::EdgeWeightConfig weight_config)
    : graph_(weight_config), model_(std::move(config)) {}

Status GraphSageEmbedder::Fit(const std::vector<rf::ScanRecord>& train) {
  // A graph with nodes was built by an earlier Fit; fitting again would
  // append every record a second time.
  if (graph_.num_nodes() > 0) {
    return Status::FailedPrecondition(
        "embedder is already fitted; fit a fresh embedder instead");
  }
  if (train.empty()) {
    return Status::InvalidArgument("no training records");
  }
  for (const rf::ScanRecord& record : train) {
    train_nodes_.push_back(graph_.AddRecord(record));
  }
  num_train_ = static_cast<int>(train.size());
  return model_.Train(graph_);
}

math::Vec GraphSageEmbedder::TrainEmbedding(int i) const {
  GEM_CHECK(i >= 0 && i < num_train_);
  return model_.Embedding(graph_, train_nodes_[i]);
}

StatusOr<math::Vec> GraphSageEmbedder::EmbedNew(
    const rf::ScanRecord& record) {
  if (!model_.trained()) {
    return Status::FailedPrecondition("embedder is not trained");
  }
  const bool connected = graph_.CountKnownMacs(record) > 0;
  const graph::NodeId node = graph_.AddRecord(record);
  model_.EnsureCapacity(graph_);
  if (!connected) {
    return Status::NotFound("record shares no MAC with the graph");
  }
  return model_.Embedding(graph_, node);
}

}  // namespace gem::embed
