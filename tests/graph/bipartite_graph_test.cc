#include "graph/bipartite_graph.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "graph/sampler.h"
#include "math/alias_sampler.h"

namespace gem::graph {
namespace {

rf::ScanRecord MakeRecord(std::vector<std::pair<std::string, double>> pairs) {
  rf::ScanRecord record;
  for (auto& [mac, rss] : pairs) {
    record.readings.push_back(rf::Reading{mac, rss, rf::Band::k2_4GHz});
  }
  return record;
}

std::vector<NodeId> Nodes(const std::vector<Neighbor>& neighbors) {
  std::vector<NodeId> nodes;
  for (const Neighbor& nb : neighbors) nodes.push_back(nb.node);
  return nodes;
}

/// Three records over MACs a-d plus an isolated record.
BipartiteGraph SmallGraph() {
  BipartiteGraph graph;
  graph.AddRecord(MakeRecord({{"a", -40.0}, {"b", -60.0}, {"c", -85.0}}));
  graph.AddRecord(MakeRecord({{"a", -55.0}, {"c", -65.0}}));
  graph.AddRecord(rf::ScanRecord{});
  graph.AddRecord(MakeRecord({{"b", -52.0}, {"c", -62.0}, {"d", -70.0}}));
  return graph;
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
  EXPECT_TRUE(graph.neighbors(r).empty());
}

TEST(BipartiteGraphTest, CountKnownMacs) {
  BipartiteGraph graph;
  graph.AddRecord(MakeRecord({{"a", -50.0}, {"b", -60.0}}));
  EXPECT_EQ(graph.CountKnownMacs(MakeRecord({{"a", -55.0}, {"z", -70.0}})), 1);
  EXPECT_EQ(graph.CountKnownMacs(MakeRecord({{"x", -55.0}, {"z", -70.0}})), 0);
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

TEST(SamplerTest, WeightedDrawsAreProportionalToWeight) {
  BipartiteGraph graph;
  // Weights 90 and 30: MAC "a" should be sampled ~3x as often as "b".
  const NodeId r = graph.AddRecord(MakeRecord({{"a", -30.0}, {"b", -90.0}}));
  const Sampler sampler(graph, /*weighted=*/true);
  math::Rng rng(5);
  std::map<NodeId, int> counts;
  const int n = 60000;
  std::vector<Neighbor> sampled;
  sampler.SampleNeighbors(r, n, rng, sampled);
  ASSERT_EQ(sampled.size(), static_cast<size_t>(n));
  for (const Neighbor& nb : sampled) {
    counts[nb.node]++;
  }
  const NodeId a = *graph.FindMac("a");
  const NodeId b = *graph.FindMac("b");
  EXPECT_NEAR(counts[a] / static_cast<double>(n), 0.75, 0.01);
  EXPECT_NEAR(counts[b] / static_cast<double>(n), 0.25, 0.01);
}

TEST(SamplerTest, IsolatedNodeSamplesNothingAndWalksInPlace) {
  const BipartiteGraph graph = SmallGraph();
  const NodeId isolated = 5;  // SmallGraph's third record
  ASSERT_EQ(graph.type(isolated), NodeType::kRecord);
  ASSERT_EQ(graph.degree(isolated), 0);
  for (const bool weighted : {true, false}) {
    const Sampler sampler(graph, weighted);
    math::Rng rng(1);
    // A stale buffer is replaced, not appended to.
    std::vector<Neighbor> sampled(3);
    sampler.SampleNeighbors(isolated, 5, rng, sampled);
    EXPECT_TRUE(sampled.empty()) << "weighted=" << weighted;
    EXPECT_EQ(sampler.RandomWalk(isolated, 4, rng),
              std::vector<NodeId>{isolated})
        << "weighted=" << weighted;
  }
}

// A sampler reads the graph as it was when the sampler was built, so a
// graph that grew gets a new sampler, and that one sees the new edge.
TEST(SamplerTest, SamplerBuiltAfterAddRecordSeesNewEdge) {
  BipartiteGraph graph;
  const NodeId first = graph.AddRecord(MakeRecord({{"a", -50.0}}));
  const NodeId a = *graph.FindMac("a");
  math::Rng rng(6);
  std::vector<Neighbor> sampled;
  {
    const Sampler before(graph, /*weighted=*/true);
    before.SampleNeighbors(a, 3, rng, sampled);
    EXPECT_EQ(Nodes(sampled), std::vector<NodeId>(3, first));
  }
  const NodeId second = graph.AddRecord(MakeRecord({{"a", -50.0}}));
  for (const bool weighted : {true, false}) {
    const Sampler after(graph, weighted);
    std::map<NodeId, int> counts;
    after.SampleNeighbors(a, 2000, rng, sampled);
    ASSERT_EQ(sampled.size(), 2000u);
    for (const Neighbor& nb : sampled) {
      counts[nb.node]++;
    }
    EXPECT_EQ(counts.size(), 2u) << "weighted=" << weighted;
    EXPECT_GT(counts[second], 0) << "weighted=" << weighted;
  }
}

TEST(SamplerTest, RandomWalkAlternatesTypes) {
  BipartiteGraph graph;
  graph.AddRecord(MakeRecord({{"a", -50.0}, {"b", -60.0}}));
  graph.AddRecord(MakeRecord({{"a", -55.0}, {"c", -65.0}}));
  graph.AddRecord(MakeRecord({{"b", -52.0}, {"c", -62.0}}));
  for (const bool weighted : {true, false}) {
    const Sampler sampler(graph, weighted);
    math::Rng rng(7);
    const auto walk = sampler.RandomWalk(0, 8, rng);
    ASSERT_EQ(walk.size(), 9u);
    for (size_t i = 0; i < walk.size(); ++i) {
      const NodeType expected =
          i % 2 == 0 ? NodeType::kRecord : NodeType::kMac;
      EXPECT_EQ(graph.type(walk[i]), expected)
          << "step " << i << " weighted=" << weighted;
    }
  }
}

TEST(SamplerTest, RandomWalkStepsAreEdges) {
  BipartiteGraph graph;
  graph.AddRecord(MakeRecord({{"a", -50.0}, {"b", -60.0}}));
  graph.AddRecord(MakeRecord({{"b", -55.0}, {"c", -65.0}}));
  for (const bool weighted : {true, false}) {
    const Sampler sampler(graph, weighted);
    math::Rng rng(8);
    const auto walk = sampler.RandomWalk(0, 20, rng);
    ASSERT_EQ(walk.size(), 21u);
    for (size_t i = 1; i < walk.size(); ++i) {
      bool is_edge = false;
      for (const Neighbor& nb : graph.neighbors(walk[i - 1])) {
        is_edge |= nb.node == walk[i];
      }
      EXPECT_TRUE(is_edge) << "step " << i << " weighted=" << weighted;
    }
  }
}

TEST(SamplerTest, NegativeSamplingFavorsHighDegree) {
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
  // The negative table is deg^{3/4} in both modes.
  for (const bool weighted : {true, false}) {
    const Sampler sampler(graph, weighted);
    math::Rng rng(9);
    int hub_count = 0;
    int rare_count = 0;
    for (int i = 0; i < 20000; ++i) {
      const NodeId z = sampler.SampleNegative(rng);
      if (z == hub) ++hub_count;
      if (z == rare) ++rare_count;
    }
    // deg(hub)=20 vs deg(rare)=1 -> ratio 20^{0.75} ~ 9.5.
    EXPECT_GT(hub_count, 5 * rare_count) << "weighted=" << weighted;
    EXPECT_GT(rare_count, 0) << "weighted=" << weighted;
  }
}

TEST(SamplerTest, AllIsolatedGraphSamplesNegativesUniformly) {
  BipartiteGraph graph;
  graph.AddRecord(rf::ScanRecord{});
  graph.AddRecord(rf::ScanRecord{});
  const Sampler sampler(graph, /*weighted=*/true);
  math::Rng rng(10);
  std::map<NodeId, int> counts;
  for (int i = 0; i < 2000; ++i) counts[sampler.SampleNegative(rng)]++;
  EXPECT_EQ(counts.size(), 2u);
}

// The draw order the goldens rest on. Uniform mode spends one
// UniformInt(degree) per neighbor draw and per walk step; weighted mode
// one alias draw over the node's edge weights. Checked draw for draw
// against test-local loops, over every node, isolated ones included.
TEST(SamplerTest, UniformModeMatchesOneUniformIntPerDraw) {
  const BipartiteGraph graph = SmallGraph();
  const Sampler sampler(graph, /*weighted=*/false);
  math::Rng rng(11);
  math::Rng reference(11);
  std::vector<Neighbor> sampled;
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    const auto& adj = graph.neighbors(node);
    sampler.SampleNeighbors(node, 7, rng, sampled);
    std::vector<NodeId> expected;
    for (int i = 0; i < 7 && !adj.empty(); ++i) {
      expected.push_back(
          adj[reference.UniformInt(static_cast<int>(adj.size()))].node);
    }
    EXPECT_EQ(Nodes(sampled), expected) << "node " << node;

    std::vector<NodeId> walk = {node};
    for (int step = 0; step < 6; ++step) {
      const auto& here = graph.neighbors(walk.back());
      if (here.empty()) break;
      walk.push_back(
          here[reference.UniformInt(static_cast<int>(here.size()))].node);
    }
    EXPECT_EQ(sampler.RandomWalk(node, 6, rng), walk) << "node " << node;
  }
  EXPECT_EQ(rng.UniformInt(1 << 30), reference.UniformInt(1 << 30));
}

TEST(SamplerTest, WeightedModeMatchesOneAliasDrawPerDraw) {
  const BipartiteGraph graph = SmallGraph();
  const Sampler sampler(graph, /*weighted=*/true);
  std::vector<math::AliasSampler> tables(graph.num_nodes());
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    const auto& adj = graph.neighbors(node);
    if (adj.empty()) continue;
    math::Vec weights;
    for (const Neighbor& nb : adj) weights.push_back(nb.weight);
    tables[node] = math::AliasSampler(weights);
  }
  math::Rng rng(12);
  math::Rng reference(12);
  std::vector<Neighbor> sampled;
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    const auto& adj = graph.neighbors(node);
    sampler.SampleNeighbors(node, 7, rng, sampled);
    std::vector<NodeId> expected;
    for (int i = 0; i < 7 && !adj.empty(); ++i) {
      expected.push_back(adj[tables[node].Sample(reference)].node);
    }
    EXPECT_EQ(Nodes(sampled), expected) << "node " << node;

    std::vector<NodeId> walk = {node};
    for (int step = 0; step < 6; ++step) {
      const auto& here = graph.neighbors(walk.back());
      if (here.empty()) break;
      walk.push_back(here[tables[walk.back()].Sample(reference)].node);
    }
    EXPECT_EQ(sampler.RandomWalk(node, 6, rng), walk) << "node " << node;
  }
  EXPECT_EQ(rng.UniformInt(1 << 30), reference.UniformInt(1 << 30));
}

}  // namespace
}  // namespace gem::graph
