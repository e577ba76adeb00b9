// Mid-epoch failpoint injection against the training schedule: a slow
// or preempted pool worker (base.thread_pool.task latency) must neither
// fail training nor move the trained bits off a 1-thread run's — the
// per-wave latch has to absorb arbitrary per-task delays, and the
// order in which executors finish must not matter. Only built with
// -DGEM_ENABLE_FAILPOINTS=ON (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <vector>

#include "embed/bisage.h"
#include "fault/failpoint.h"
#include "graph/bipartite_graph.h"
#include "tests/common/test_records.h"

namespace gem::embed {
namespace {

using testing::MakeTwoClusters;

BiSageConfig FastConfig() {
  BiSageConfig config;
  config.dimension = 16;
  config.epochs = 2;
  config.seed = 31;
  return config;
}

graph::BipartiteGraph BuildGraph(const std::vector<rf::ScanRecord>& records) {
  graph::BipartiteGraph graph;
  for (const auto& record : records) graph.AddRecord(record);
  return graph;
}

void ExpectSameMatrices(const math::Matrix& a, const math::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a.At(r, c), b.At(r, c));
    }
  }
}

class PipelineChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

TEST_F(PipelineChaosTest, SlowWorkersDoNotFailTraining) {
  const auto data = MakeTwoClusters(8, 41);
  const auto graph = BuildGraph(data.records);
  ASSERT_TRUE(fault::Configure("base.thread_pool.task=every=7/delay=2/ok").ok());

  BiSageConfig config = FastConfig();
  config.num_threads = 4;
  BiSage model(config);
  ASSERT_TRUE(model.Train(graph).ok());
  EXPECT_TRUE(model.trained());
  EXPECT_GT(fault::HitCount("base.thread_pool.task"), 0u);
}

TEST_F(PipelineChaosTest, InjectedLatencyKeepsSingleThreadBits) {
  const auto data = MakeTwoClusters(8, 42);
  const auto graph = BuildGraph(data.records);

  BiSageConfig config = FastConfig();
  config.num_threads = 1;
  BiSage clean(config);
  ASSERT_TRUE(clean.Train(graph).ok());
  const auto reference = clean.ExportTrained();

  // Every third pool dispatch stalls 2 ms mid-epoch, so the stalled
  // executors finish their shards last. The 4-thread weights must
  // still be the 1-thread weights, bit for bit.
  ASSERT_TRUE(fault::Configure("base.thread_pool.task=every=3/delay=2/ok").ok());
  config.num_threads = 4;
  BiSage chaotic(config);
  ASSERT_TRUE(chaotic.Train(graph).ok());
  const auto state = chaotic.ExportTrained();

  ExpectSameMatrices(reference.h_table, state.h_table);
  ExpectSameMatrices(reference.l_table, state.l_table);
  ASSERT_EQ(reference.w_h.size(), state.w_h.size());
  for (size_t k = 0; k < reference.w_h.size(); ++k) {
    ExpectSameMatrices(reference.w_h[k], state.w_h[k]);
    ExpectSameMatrices(reference.w_l[k], state.w_l[k]);
  }
  EXPECT_EQ(reference.last_epoch_loss, state.last_epoch_loss);
}

}  // namespace
}  // namespace gem::embed
