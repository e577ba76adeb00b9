#include "graph/graph_delta.h"

#include "base/check.h"
#include "graph/edge_weight.h"

namespace gem::graph {

std::vector<Neighbor>& GraphDelta::MutableAdjacency(const BipartiteGraph& base,
                                                    NodeId id) {
  if (id >= base_nodes_) {
    return new_adjacency_[static_cast<size_t>(id - base_nodes_)];
  }
  const auto it = touched_.find(id);
  if (it != touched_.end()) return it->second;
  // Copy-on-first-touch: seed the merged row with the frozen base row
  // so later appends extend it exactly like AddRecord on a mutable
  // graph would have.
  return touched_.emplace(id, base.neighbors(id)).first->second;
}

NodeId GraphDelta::AddRecord(const BipartiteGraph& base,
                             const rf::ScanRecord& record) {
  if (base_nodes_ < 0) base_nodes_ = base.num_nodes();
  // The overlay contract: the base is frozen once a delta binds to it.
  GEM_CHECK(base.num_nodes() == base_nodes_);

  const NodeId record_id = base_nodes_ + num_new_nodes();
  new_types_.push_back(NodeType::kRecord);
  new_adjacency_.emplace_back();

  for (const rf::Reading& reading : record.readings) {
    NodeId mac_id;
    if (const std::optional<NodeId> found = base.FindMac(reading.mac)) {
      mac_id = *found;
    } else if (const auto it = new_macs_.find(reading.mac);
               it != new_macs_.end()) {
      mac_id = it->second;
    } else {
      mac_id = base_nodes_ + num_new_nodes();
      new_types_.push_back(NodeType::kMac);
      new_adjacency_.emplace_back();
      new_macs_.emplace(reading.mac, mac_id);
    }
    const double w = EdgeWeight(reading.rss_dbm, base.weight_config());
    MutableAdjacency(base, record_id).push_back(Neighbor{mac_id, w});
    MutableAdjacency(base, mac_id).push_back(Neighbor{record_id, w});
  }
  return record_id;
}

NodeType OverlayGraphView::type(NodeId id) const {
  const int base_nodes = base_.num_nodes();
  if (id < base_nodes) return base_.type(id);
  GEM_CHECK(id < num_nodes());
  return delta_.new_types_[static_cast<size_t>(id - base_nodes)];
}

const std::vector<Neighbor>& OverlayGraphView::neighbors(NodeId id) const {
  const auto it = delta_.touched_.find(id);
  if (it != delta_.touched_.end()) return it->second;
  const int base_nodes = base_.num_nodes();
  if (id < base_nodes) return base_.neighbors(id);
  GEM_CHECK(id < num_nodes());
  return delta_.new_adjacency_[static_cast<size_t>(id - base_nodes)];
}

std::optional<NodeId> OverlayGraphView::FindMac(const std::string& mac) const {
  if (const std::optional<NodeId> found = base_.FindMac(mac)) return found;
  const auto it = delta_.new_macs_.find(mac);
  if (it == delta_.new_macs_.end()) return std::nullopt;
  return it->second;
}

int OverlayGraphView::CountKnownMacs(const rf::ScanRecord& record) const {
  int known = 0;
  for (const rf::Reading& reading : record.readings) {
    if (FindMac(reading.mac).has_value()) ++known;
  }
  return known;
}

}  // namespace gem::graph
