#ifndef GEM_GRAPH_BIPARTITE_GRAPH_H_
#define GEM_GRAPH_BIPARTITE_GRAPH_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "graph/edge_weight.h"
#include "rf/types.h"

namespace gem::graph {

/// Node identifier, shared across both sides of the bipartition.
using NodeId = int;

enum class NodeType { kRecord, kMac };

/// A weighted adjacency entry.
struct Neighbor {
  NodeId node = -1;
  double weight = 0.0;
};

/// The paper's weighted bipartite graph G = (U, V, E, w): signal-record
/// nodes on one side, MAC nodes on the other, an edge per sensed
/// (record, MAC) pair weighted by f(RSS) (Section IV-A).
///
/// The graph is dynamic: new records (and new MACs) are appended as
/// they stream in (Section V-A), which is what makes BiSAGE inductive
/// in GEM. It holds structure only: training samples it through a
/// graph::Sampler built over the frozen graph.
class BipartiteGraph {
 public:
  explicit BipartiteGraph(EdgeWeightConfig weight_config = {});

  /// Adds a record node with edges to its sensed MACs (creating MAC
  /// nodes on first sight); returns the new record's NodeId. A record
  /// with no readings becomes an isolated record node.
  NodeId AddRecord(const rf::ScanRecord& record);

  int num_nodes() const { return static_cast<int>(adjacency_.size()); }
  int num_records() const { return num_records_; }
  int num_macs() const { return num_macs_; }

  NodeType type(NodeId id) const;
  const std::vector<Neighbor>& neighbors(NodeId id) const;
  int degree(NodeId id) const;

  /// NodeId of a MAC, if it has been seen.
  std::optional<NodeId> FindMac(const std::string& mac) const;

  /// Number of readings in `record` whose MAC the graph already knows.
  /// GEM treats a record with zero known MACs as an outlier outright
  /// (footnote 3 of the paper).
  int CountKnownMacs(const rf::ScanRecord& record) const;

  const EdgeWeightConfig& weight_config() const { return weight_config_; }

  /// MAC string -> NodeId index (snapshot support; iteration order is
  /// unspecified and must not influence behavior).
  const std::unordered_map<std::string, NodeId>& mac_index() const {
    return mac_index_;
  }

  /// Rebuilds a graph from persisted structure (store/snapshot_v2.cc).
  /// `types` and `adjacency` are per-node and must be consistent with
  /// the (mac string, node id) list. Returns InvalidArgument on any
  /// inconsistency.
  static StatusOr<BipartiteGraph> FromParts(
      EdgeWeightConfig weight_config, std::vector<NodeType> types,
      std::vector<std::vector<Neighbor>> adjacency,
      std::vector<std::pair<std::string, NodeId>> macs);

 private:
  EdgeWeightConfig weight_config_;
  std::vector<NodeType> types_;
  std::vector<std::vector<Neighbor>> adjacency_;
  std::unordered_map<std::string, NodeId> mac_index_;
  int num_records_ = 0;
  int num_macs_ = 0;
};

}  // namespace gem::graph

#endif  // GEM_GRAPH_BIPARTITE_GRAPH_H_
