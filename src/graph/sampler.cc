#include "graph/sampler.h"

#include <cmath>

#include "base/check.h"

namespace gem::graph {
namespace {

/// The negative-sampling table: degree^{3/4} per node, uniform when
/// every node is isolated.
math::AliasSampler NegativeTable(const BipartiteGraph& graph) {
  math::Vec weights(graph.num_nodes());
  bool any = false;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    weights[id] = std::pow(static_cast<double>(graph.degree(id)), 0.75);
    any |= weights[id] > 0.0;
  }
  if (!any) {
    for (double& w : weights) w = 1.0;
  }
  return math::AliasSampler(weights);
}

}  // namespace

Sampler::Sampler(const BipartiteGraph& graph, bool weighted)
    : graph_(graph), weighted_(weighted), negative_(NegativeTable(graph)) {
  if (!weighted_) return;
  neighbor_tables_.resize(graph.num_nodes());
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const std::vector<Neighbor>& adj = graph.neighbors(id);
    if (adj.empty()) continue;
    math::Vec weights(adj.size());
    for (size_t i = 0; i < adj.size(); ++i) weights[i] = adj[i].weight;
    neighbor_tables_[id] = math::AliasSampler(weights);
  }
}

int Sampler::DrawIndex(NodeId id, int degree, math::Rng& rng) const {
  return weighted_ ? neighbor_tables_[id].Sample(rng) : rng.UniformInt(degree);
}

void Sampler::SampleNeighbors(NodeId id, int count, math::Rng& rng,
                              std::vector<Neighbor>& out) const {
  GEM_CHECK(count >= 0);
  out.clear();
  const std::vector<Neighbor>& adj = graph_.neighbors(id);
  if (adj.empty()) return;
  const int degree = static_cast<int>(adj.size());
  for (int i = 0; i < count; ++i) {
    out.push_back(adj[DrawIndex(id, degree, rng)]);
  }
}

std::vector<NodeId> Sampler::RandomWalk(NodeId start, int length,
                                        math::Rng& rng) const {
  GEM_CHECK(length >= 0);
  std::vector<NodeId> walk;
  walk.reserve(length + 1);
  walk.push_back(start);
  NodeId current = start;
  for (int step = 0; step < length; ++step) {
    const std::vector<Neighbor>& adj = graph_.neighbors(current);
    if (adj.empty()) break;
    current = adj[DrawIndex(current, static_cast<int>(adj.size()), rng)].node;
    walk.push_back(current);
  }
  return walk;
}

}  // namespace gem::graph
