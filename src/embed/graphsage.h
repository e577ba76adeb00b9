#ifndef GEM_EMBED_GRAPHSAGE_H_
#define GEM_EMBED_GRAPHSAGE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "embed/embedder.h"
#include "graph/bipartite_graph.h"
#include "graph/sampler.h"
#include "math/autograd.h"
#include "math/flat_tape.h"
#include "math/rng.h"

namespace gem::embed {

/// GraphSAGE hyperparameters (the paper's baseline configuration:
/// homogeneous treatment of the bipartite graph, uniform neighborhood
/// sampling, uniform random walks, single embedding per node).
struct GraphSageConfig {
  int dimension = 32;
  int num_layers = 2;
  std::vector<int> fanouts = {6, 4};
  int walks_per_node = 2;
  int walk_length = 5;
  int epochs = 3;
  int num_negatives = 4;
  double learning_rate = 0.003;
  int batch_pairs = 16;
  uint64_t seed = 17;
};

/// The GraphSAGE baseline of Table I ("GraphSAGE + OD"): the same
/// bipartite graph is embedded as if it were homogeneous — one
/// embedding per node, MEAN aggregation over uniformly sampled
/// neighbors, uniform random walks, and the standard unsupervised
/// negative-sampling loss. The contrast with BiSAGE isolates the value
/// of bi-level aggregation + weighted sampling.
class GraphSage {
 public:
  explicit GraphSage(GraphSageConfig config);

  /// Trains once: kFailedPrecondition, changing nothing, for a trained
  /// model. The sampler and the Adam state live only inside the call.
  Status Train(const graph::BipartiteGraph& graph);

  /// Grows the fixed initial-embedding table to cover every node of
  /// `graph`, in node order: random identity rows for MAC nodes, zero
  /// rows for record nodes. Train() calls it; a caller that adds nodes
  /// to the graph afterwards calls it before Embedding().
  void EnsureCapacity(const graph::BipartiteGraph& graph);

  /// Final embedding z^K of a node. The table must cover `graph`.
  math::Vec Embedding(const graph::BipartiteGraph& graph,
                      graph::NodeId node) const;

  double last_epoch_loss() const { return last_epoch_loss_; }
  const GraphSageConfig& config() const { return config_; }
  bool trained() const { return trained_; }

 private:
  math::VarId BuildNodeVar(math::FlatTape& tape,
                           const graph::Sampler& sampler,
                           graph::NodeId node, int layer, math::Rng& rng,
                           std::unordered_map<long, math::VarId>& memo) const;

  math::Vec InferNode(const graph::BipartiteGraph& graph,
                      graph::NodeId node, int layer,
                      std::unordered_map<long, math::Vec>& memo) const;

  GraphSageConfig config_;
  math::Matrix table_;
  math::Rng init_rng_;
  std::vector<std::unique_ptr<math::Parameter>> weights_;
  double last_epoch_loss_ = 0.0;
  bool trained_ = false;
};

/// RecordEmbedder adapter for GraphSAGE over the bipartite graph.
class GraphSageEmbedder : public RecordEmbedder {
 public:
  explicit GraphSageEmbedder(GraphSageConfig config = {},
                             graph::EdgeWeightConfig weight_config = {});

  /// Fits once: kFailedPrecondition, changing nothing, once the graph
  /// holds nodes (after a Fit past the empty-input check).
  Status Fit(const std::vector<rf::ScanRecord>& train) override;
  math::Vec TrainEmbedding(int i) const override;
  int num_train() const override { return num_train_; }
  StatusOr<math::Vec> EmbedNew(const rf::ScanRecord& record) override;
  int dimension() const override { return model_.config().dimension; }

 private:
  graph::BipartiteGraph graph_;
  GraphSage model_;
  std::vector<graph::NodeId> train_nodes_;
  int num_train_ = 0;
};

}  // namespace gem::embed

#endif  // GEM_EMBED_GRAPHSAGE_H_
