#ifndef GEM_GRAPH_SAMPLER_H_
#define GEM_GRAPH_SAMPLER_H_

#include <vector>

#include "graph/bipartite_graph.h"
#include "math/alias_sampler.h"
#include "math/rng.h"

namespace gem::graph {

/// The training-time sampling policy over a frozen BipartiteGraph
/// (Section IV-B): neighbor draws and random walks, weight-proportional
/// or uniform, and degree^{3/4} negatives (Equation (8)).
///
/// The constructor builds every table; afterwards the sampler is only
/// read, so any number of threads may sample concurrently. It keeps a
/// reference to `graph`, which must outlive it and must not grow while
/// it lives (its tables would no longer match the adjacency).
class Sampler {
 public:
  /// `weighted` draws each neighbor with probability proportional to
  /// its edge weight (the paper's non-uniform sampling); otherwise
  /// uniformly (GraphSAGE, and BiSAGE's ablation). The graph must have
  /// at least one node.
  Sampler(const BipartiteGraph& graph, bool weighted);

  const BipartiteGraph& graph() const { return graph_; }

  /// Replaces `out` with `count` neighbors of `id` drawn with
  /// replacement; `out` ends empty for an isolated node. A reused `out`
  /// keeps its capacity, so training samples without allocating.
  void SampleNeighbors(NodeId id, int count, math::Rng& rng,
                       std::vector<Neighbor>& out) const;

  /// Random walk of `length` steps starting at `start`; the returned
  /// sequence includes the start node. Stops early at an isolated node.
  std::vector<NodeId> RandomWalk(NodeId start, int length,
                                 math::Rng& rng) const;

  /// Draws a node with probability proportional to degree^{3/4}, or
  /// uniformly when every node is isolated.
  NodeId SampleNegative(math::Rng& rng) const { return negative_.Sample(rng); }

 private:
  /// Index into the non-empty adjacency of `id`, of size `degree`: one
  /// alias draw when weighted, one UniformInt draw otherwise.
  int DrawIndex(NodeId id, int degree, math::Rng& rng) const;

  const BipartiteGraph& graph_;
  bool weighted_;
  /// Per node when weighted (empty for isolated nodes); unused otherwise.
  std::vector<math::AliasSampler> neighbor_tables_;
  math::AliasSampler negative_;
};

}  // namespace gem::graph

#endif  // GEM_GRAPH_SAMPLER_H_
