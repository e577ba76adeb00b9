#ifndef GEM_GRAPH_GRAPH_DELTA_H_
#define GEM_GRAPH_GRAPH_DELTA_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/bipartite_graph.h"
#include "rf/types.h"

namespace gem::graph {

/// Append-only delta over a frozen BipartiteGraph base. The base is
/// never written: new record/MAC nodes live in the delta, and the few
/// base MAC rows a new record touches are copied on first touch into a
/// merged adjacency (base entries first, appended entries after — the
/// exact row AddRecord on a mutable graph would have produced). That
/// is what lets many fences share one read-only (typically mmap'd)
/// base while each absorbs its own traffic.
///
/// AddRecord mirrors BipartiteGraph::AddRecord bit for bit: same node-
/// id assignment order, same EdgeWeight arithmetic, same adjacency
/// append order — so inference over OverlayGraphView is bit-identical
/// to inference over a mutated base. The delta keeps no sampling
/// state: inference aggregates full neighborhoods.
class GraphDelta {
 public:
  GraphDelta() = default;

  /// Appends a record node (creating MAC nodes on first sight across
  /// base + delta); returns the new record's NodeId in the combined
  /// id space. The base must not have grown since the first call.
  NodeId AddRecord(const BipartiteGraph& base, const rf::ScanRecord& record);

  bool empty() const { return new_types_.empty(); }

  /// Base size this delta was bound to (-1 until the first AddRecord).
  int base_nodes() const { return base_nodes_; }
  int num_new_nodes() const { return static_cast<int>(new_types_.size()); }

  /// Delta-node state, indexed by (id - base_nodes()). Exposed for
  /// compaction back into a standalone graph.
  const std::vector<NodeType>& new_types() const { return new_types_; }
  const std::vector<std::vector<Neighbor>>& new_adjacency() const {
    return new_adjacency_;
  }
  /// MAC string -> combined-space NodeId for MACs first seen post-base.
  const std::unordered_map<std::string, NodeId>& new_macs() const {
    return new_macs_;
  }
  /// Base nodes whose adjacency grew: merged rows (base prefix +
  /// appended suffix).
  const std::unordered_map<NodeId, std::vector<Neighbor>>& touched() const {
    return touched_;
  }

 private:
  friend class OverlayGraphView;

  /// Mutable adjacency row for id: delta row, or the copy-on-first-
  /// touch merged row for a base node.
  std::vector<Neighbor>& MutableAdjacency(const BipartiteGraph& base,
                                          NodeId id);

  int base_nodes_ = -1;
  std::vector<NodeType> new_types_;
  std::vector<std::vector<Neighbor>> new_adjacency_;
  std::unordered_map<NodeId, std::vector<Neighbor>> touched_;
  std::unordered_map<std::string, NodeId> new_macs_;
};

/// Read view over base + delta presenting the merged graph with the
/// BipartiteGraph read API. Both referents must outlive the view; the
/// base must not grow while the view exists.
class OverlayGraphView {
 public:
  OverlayGraphView(const BipartiteGraph& base, const GraphDelta& delta)
      : base_(base), delta_(delta) {}

  int num_nodes() const {
    return base_.num_nodes() + delta_.num_new_nodes();
  }

  NodeType type(NodeId id) const;
  const std::vector<Neighbor>& neighbors(NodeId id) const;
  int degree(NodeId id) const {
    return static_cast<int>(neighbors(id).size());
  }

  std::optional<NodeId> FindMac(const std::string& mac) const;
  int CountKnownMacs(const rf::ScanRecord& record) const;

  const BipartiteGraph& base() const { return base_; }
  const GraphDelta& delta() const { return delta_; }

 private:
  const BipartiteGraph& base_;
  const GraphDelta& delta_;
};

}  // namespace gem::graph

#endif  // GEM_GRAPH_GRAPH_DELTA_H_
