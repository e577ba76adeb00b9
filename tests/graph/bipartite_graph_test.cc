#include "graph/bipartite_graph.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace gem::graph {
namespace {

rf::ScanRecord MakeRecord(std::vector<std::pair<std::string, double>> pairs) {
  rf::ScanRecord record;
  for (auto& [mac, rss] : pairs) {
    record.readings.push_back(rf::Reading{mac, rss, rf::Band::k2_4GHz});
  }
  return record;
}

TEST(BipartiteGraphTest, BuildsNodesAndEdges) {
  BipartiteGraph graph;
  const NodeId r1 = graph.AddRecord(
      MakeRecord({{"a", -50.0}, {"b", -60.0}, {"c", -70.0}}));
  const NodeId r2 = graph.AddRecord(MakeRecord({{"c", -55.0}, {"d", -65.0}}));

  EXPECT_EQ(graph.num_records(), 2);
  EXPECT_EQ(graph.num_macs(), 4);
  EXPECT_EQ(graph.num_nodes(), 6);
  EXPECT_EQ(graph.type(r1), NodeType::kRecord);
  EXPECT_EQ(graph.degree(r1), 3);
  EXPECT_EQ(graph.degree(r2), 2);

  // Shared MAC "c" connects both records.
  const auto c = graph.FindMac("c");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(graph.type(*c), NodeType::kMac);
  EXPECT_EQ(graph.degree(*c), 2);
}

TEST(BipartiteGraphTest, EdgeWeightsFollowRss) {
  BipartiteGraph graph;  // linear offset, c = 120
  const NodeId r = graph.AddRecord(MakeRecord({{"a", -50.0}, {"b", -80.0}}));
  const auto& adj = graph.neighbors(r);
  ASSERT_EQ(adj.size(), 2u);
  EXPECT_DOUBLE_EQ(adj[0].weight, 70.0);
  EXPECT_DOUBLE_EQ(adj[1].weight, 40.0);
}

TEST(BipartiteGraphTest, FromPartsRejectsEdgesWithinOneSide) {
  // Record 0 -- MAC 1 is a valid graph; a MAC 1 -- MAC 2 edge is not.
  const std::vector<NodeType> types = {NodeType::kRecord, NodeType::kMac,
                                       NodeType::kMac};
  std::vector<std::vector<Neighbor>> adjacency = {
      {{1, 50.0}}, {{0, 50.0}}, {}};
  const std::vector<std::pair<std::string, NodeId>> macs = {{"a", 1},
                                                            {"b", 2}};
  EXPECT_TRUE(BipartiteGraph::FromParts({}, types, adjacency, macs).ok());

  adjacency[1].push_back({2, 30.0});
  adjacency[2].push_back({1, 30.0});
  EXPECT_EQ(BipartiteGraph::FromParts({}, types, adjacency, macs)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(BipartiteGraphTest, EmptyRecordIsIsolated) {
  BipartiteGraph graph;
  const NodeId r = graph.AddRecord(rf::ScanRecord{});
  EXPECT_EQ(graph.degree(r), 0);
  math::Rng rng(1);
  // A stale buffer is replaced, not appended to.
  std::vector<Neighbor> sampled(3);
  graph.SampleNeighbors(r, 5, rng, sampled);
  EXPECT_TRUE(sampled.empty());
  EXPECT_EQ(graph.RandomWalk(r, 4, rng).size(), 1u);
}

TEST(BipartiteGraphTest, CountKnownMacs) {
  BipartiteGraph graph;
  graph.AddRecord(MakeRecord({{"a", -50.0}, {"b", -60.0}}));
  EXPECT_EQ(graph.CountKnownMacs(MakeRecord({{"a", -55.0}, {"z", -70.0}})), 1);
  EXPECT_EQ(graph.CountKnownMacs(MakeRecord({{"x", -55.0}, {"z", -70.0}})), 0);
}

TEST(BipartiteGraphTest, SamplingProportionalToWeight) {
  BipartiteGraph graph;
  // Weights 90 and 30: MAC "a" should be sampled ~3x as often as "b".
  const NodeId r = graph.AddRecord(MakeRecord({{"a", -30.0}, {"b", -90.0}}));
  math::Rng rng(5);
  std::map<NodeId, int> counts;
  const int n = 60000;
  std::vector<Neighbor> sampled;
  graph.SampleNeighbors(r, n, rng, sampled);
  ASSERT_EQ(sampled.size(), static_cast<size_t>(n));
  for (const Neighbor& nb : sampled) {
    counts[nb.node]++;
  }
  const NodeId a = *graph.FindMac("a");
  const NodeId b = *graph.FindMac("b");
  EXPECT_NEAR(counts[a] / static_cast<double>(n), 0.75, 0.01);
  EXPECT_NEAR(counts[b] / static_cast<double>(n), 0.25, 0.01);
}

TEST(BipartiteGraphTest, SamplingWorksAfterGraphGrowth) {
  // MAC node alias caches must be invalidated when later records attach
  // new edges to them.
  BipartiteGraph graph;
  graph.AddRecord(MakeRecord({{"a", -50.0}}));
  const NodeId a = *graph.FindMac("a");
  math::Rng rng(6);
  std::vector<Neighbor> sampled;
  graph.SampleNeighbors(a, 3, rng, sampled);  // builds the cache (degree 1)
  graph.AddRecord(MakeRecord({{"a", -50.0}}));
  // Now degree 2: both record nodes must appear.
  std::map<NodeId, int> counts;
  graph.SampleNeighbors(a, 2000, rng, sampled);
  ASSERT_EQ(sampled.size(), 2000u);
  for (const Neighbor& nb : sampled) {
    counts[nb.node]++;
  }
  EXPECT_EQ(counts.size(), 2u);
}

TEST(BipartiteGraphTest, RandomWalkAlternatesTypes) {
  BipartiteGraph graph;
  graph.AddRecord(MakeRecord({{"a", -50.0}, {"b", -60.0}}));
  graph.AddRecord(MakeRecord({{"a", -55.0}, {"c", -65.0}}));
  graph.AddRecord(MakeRecord({{"b", -52.0}, {"c", -62.0}}));
  math::Rng rng(7);
  const auto walk = graph.RandomWalk(0, 8, rng);
  ASSERT_EQ(walk.size(), 9u);
  for (size_t i = 0; i < walk.size(); ++i) {
    const NodeType expected =
        i % 2 == 0 ? NodeType::kRecord : NodeType::kMac;
    EXPECT_EQ(graph.type(walk[i]), expected) << "step " << i;
  }
}

TEST(BipartiteGraphTest, RandomWalkStepsAreEdges) {
  BipartiteGraph graph;
  graph.AddRecord(MakeRecord({{"a", -50.0}, {"b", -60.0}}));
  graph.AddRecord(MakeRecord({{"b", -55.0}, {"c", -65.0}}));
  math::Rng rng(8);
  const auto walk = graph.RandomWalk(0, 20, rng);
  for (size_t i = 1; i < walk.size(); ++i) {
    bool is_edge = false;
    for (const Neighbor& nb : graph.neighbors(walk[i - 1])) {
      is_edge |= nb.node == walk[i];
    }
    EXPECT_TRUE(is_edge) << "step " << i;
  }
}

TEST(BipartiteGraphTest, NegativeSamplingFavorsHighDegree) {
  BipartiteGraph graph;
  // MAC "hub" appears in every record; "rare" in one.
  for (int i = 0; i < 20; ++i) {
    auto record = MakeRecord({{"hub", -50.0}});
    if (i == 0) {
      record.readings.push_back(rf::Reading{"rare", -60.0,
                                            rf::Band::k2_4GHz});
    }
    graph.AddRecord(record);
  }
  const NodeId hub = *graph.FindMac("hub");
  const NodeId rare = *graph.FindMac("rare");
  math::Rng rng(9);
  int hub_count = 0;
  int rare_count = 0;
  for (int i = 0; i < 20000; ++i) {
    const NodeId z = graph.SampleNegative(rng);
    if (z == hub) ++hub_count;
    if (z == rare) ++rare_count;
  }
  // deg(hub)=20 vs deg(rare)=1 -> ratio 20^{0.75} ~ 9.5.
  EXPECT_GT(hub_count, 5 * rare_count);
}

TEST(BipartiteGraphTest, WeightConfigRespected) {
  EdgeWeightConfig config;
  config.kind = WeightKind::kBinary;
  BipartiteGraph graph(config);
  const NodeId r = graph.AddRecord(MakeRecord({{"a", -30.0}, {"b", -90.0}}));
  for (const Neighbor& nb : graph.neighbors(r)) {
    EXPECT_DOUBLE_EQ(nb.weight, 1.0);
  }
}

}  // namespace
}  // namespace gem::graph
