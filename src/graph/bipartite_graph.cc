#include "graph/bipartite_graph.h"

#include <cmath>

#include "base/check.h"

namespace gem::graph {

BipartiteGraph::BipartiteGraph(EdgeWeightConfig weight_config)
    : weight_config_(weight_config) {}

NodeId BipartiteGraph::AddRecord(const rf::ScanRecord& record) {
  const NodeId record_id = num_nodes();
  types_.push_back(NodeType::kRecord);
  adjacency_.emplace_back();
  ++num_records_;

  for (const rf::Reading& reading : record.readings) {
    NodeId mac_id;
    const auto it = mac_index_.find(reading.mac);
    if (it == mac_index_.end()) {
      mac_id = num_nodes();
      types_.push_back(NodeType::kMac);
      adjacency_.emplace_back();
      mac_index_.emplace(reading.mac, mac_id);
      ++num_macs_;
    } else {
      mac_id = it->second;
    }
    const double w = EdgeWeight(reading.rss_dbm, weight_config_);
    adjacency_[record_id].push_back(Neighbor{mac_id, w});
    adjacency_[mac_id].push_back(Neighbor{record_id, w});
  }
  return record_id;
}

StatusOr<BipartiteGraph> BipartiteGraph::FromParts(
    EdgeWeightConfig weight_config, std::vector<NodeType> types,
    std::vector<std::vector<Neighbor>> adjacency,
    std::vector<std::pair<std::string, NodeId>> macs) {
  const int n = static_cast<int>(types.size());
  if (adjacency.size() != types.size()) {
    return Status::InvalidArgument("graph state: adjacency/type size mismatch");
  }
  int num_macs = 0;
  for (const NodeType type : types) {
    if (type != NodeType::kRecord && type != NodeType::kMac) {
      return Status::InvalidArgument("graph state: unknown node type");
    }
    if (type == NodeType::kMac) ++num_macs;
  }
  for (int id = 0; id < n; ++id) {
    for (const Neighbor& nb : adjacency[id]) {
      if (nb.node < 0 || nb.node >= n) {
        return Status::InvalidArgument("graph state: neighbor id out of range");
      }
      // BiSAGE's layer-1 MAC table relies on every edge joining a
      // record to a MAC.
      if (types[nb.node] == types[id]) {
        return Status::InvalidArgument(
            "graph state: edge within one side of the bipartition");
      }
      if (!(nb.weight > 0.0) || !std::isfinite(nb.weight)) {
        return Status::InvalidArgument("graph state: non-positive edge weight");
      }
    }
  }
  if (static_cast<int>(macs.size()) != num_macs) {
    return Status::InvalidArgument("graph state: mac index size mismatch");
  }
  BipartiteGraph graph(weight_config);
  for (const auto& [mac, id] : macs) {
    if (id < 0 || id >= n || types[id] != NodeType::kMac) {
      return Status::InvalidArgument("graph state: mac index id invalid");
    }
    if (!graph.mac_index_.emplace(mac, id).second) {
      return Status::InvalidArgument("graph state: duplicate mac string");
    }
  }
  graph.types_ = std::move(types);
  graph.adjacency_ = std::move(adjacency);
  graph.num_records_ = n - num_macs;
  graph.num_macs_ = num_macs;
  return graph;
}

NodeType BipartiteGraph::type(NodeId id) const {
  GEM_CHECK(id >= 0 && id < num_nodes());
  return types_[id];
}

const std::vector<Neighbor>& BipartiteGraph::neighbors(NodeId id) const {
  GEM_CHECK(id >= 0 && id < num_nodes());
  return adjacency_[id];
}

int BipartiteGraph::degree(NodeId id) const {
  return static_cast<int>(neighbors(id).size());
}

std::optional<NodeId> BipartiteGraph::FindMac(const std::string& mac) const {
  const auto it = mac_index_.find(mac);
  if (it == mac_index_.end()) return std::nullopt;
  return it->second;
}

int BipartiteGraph::CountKnownMacs(const rf::ScanRecord& record) const {
  int known = 0;
  for (const rf::Reading& reading : record.readings) {
    if (mac_index_.count(reading.mac) > 0) ++known;
  }
  return known;
}

}  // namespace gem::graph
