// Unit coverage for the gem::fault registry itself: policy grammar,
// trigger semantics (once / always / every-Nth / seeded probability),
// payload injection, counters, and the instrumented sites in layers
// below serve (thread-pool dispatch, CSV parsing). This binary only
// exists in builds configured with -DGEM_ENABLE_FAILPOINTS=ON.
#include "fault/failpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_pool.h"
#include "rf/record_io.h"

namespace gem::fault {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(); }
  void TearDown() override { Reset(); }
};

TEST_F(FailpointTest, CompiledInThisBuild) { EXPECT_TRUE(CompiledIn()); }

TEST_F(FailpointTest, UnconfiguredPointNeverFires) {
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(Evaluate("no.such.point").ok());
  }
  EXPECT_EQ(HitCount("no.such.point"), 0u);
  EXPECT_TRUE(ConfiguredPoints().empty());
}

TEST_F(FailpointTest, OnceFiresExactlyOnce) {
  ASSERT_TRUE(Configure("a.b.c=once/unavailable").ok());
  EXPECT_EQ(Evaluate("a.b.c").code(), StatusCode::kUnavailable);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(Evaluate("a.b.c").ok());
  }
  EXPECT_EQ(HitCount("a.b.c"), 6u);
  EXPECT_EQ(TriggerCount("a.b.c"), 1u);
}

TEST_F(FailpointTest, AlwaysFiresEveryTimeWithDefaultInternal) {
  ASSERT_TRUE(Configure("a.b.c=always").ok());
  for (int i = 0; i < 3; ++i) {
    const Status status = Evaluate("a.b.c");
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_NE(status.message().find("a.b.c"), std::string::npos);
  }
  EXPECT_EQ(TriggerCount("a.b.c"), 3u);
}

TEST_F(FailpointTest, EveryNthFiresOnMultiples) {
  ASSERT_TRUE(Configure("a.b.c=every=3/data_loss").ok());
  std::vector<int> fired_on;
  for (int hit = 1; hit <= 9; ++hit) {
    if (!Evaluate("a.b.c").ok()) fired_on.push_back(hit);
  }
  EXPECT_EQ(fired_on, (std::vector<int>{3, 6, 9}));
}

TEST_F(FailpointTest, SeededProbabilityReplaysBitIdentically) {
  const auto run = [](const std::string& spec) {
    EXPECT_TRUE(Configure(spec).ok());
    std::vector<bool> fires;
    for (int i = 0; i < 500; ++i) {
      fires.push_back(!Evaluate("p.q.r").ok());
    }
    Reset();
    return fires;
  };
  const std::vector<bool> first = run("p.q.r=prob=0.2@42/unavailable");
  const std::vector<bool> second = run("p.q.r=prob=0.2@42/unavailable");
  EXPECT_EQ(first, second);

  int fired = 0;
  for (const bool f : first) fired += f ? 1 : 0;
  // 500 Bernoulli(0.2) trials: [60, 140] is > 6 sigma around 100.
  EXPECT_GT(fired, 60);
  EXPECT_LT(fired, 140);
}

TEST_F(FailpointTest, ProbabilityZeroAndOneAreDegenerate) {
  ASSERT_TRUE(Configure("never=prob=0@7;ever=prob=1@7/not_found").ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(Evaluate("never").ok());
    EXPECT_EQ(Evaluate("ever").code(), StatusCode::kNotFound);
  }
}

TEST_F(FailpointTest, DelayPayloadSleepsBeforeReturning) {
  ASSERT_TRUE(Configure("slow=always/unavailable/delay=30").ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(Evaluate("slow").code(), StatusCode::kUnavailable);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            25);
}

TEST_F(FailpointTest, OkPayloadInjectsLatencyOnly) {
  ASSERT_TRUE(Configure("slow=always/delay=20/ok").ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(Evaluate("slow").ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            15);
  EXPECT_EQ(TriggerCount("slow"), 1u);
}

TEST_F(FailpointTest, OffRemovesThePoint) {
  ASSERT_TRUE(Configure("a=always;b=always").ok());
  EXPECT_EQ(ConfiguredPoints(), (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(Configure("a=off").ok());
  EXPECT_EQ(ConfiguredPoints(), (std::vector<std::string>{"b"}));
  EXPECT_TRUE(Evaluate("a").ok());
  EXPECT_FALSE(Evaluate("b").ok());
}

TEST_F(FailpointTest, ReconfigureReplacesPolicyAndCounters) {
  ASSERT_TRUE(Configure("a=always/unavailable").ok());
  EXPECT_EQ(Evaluate("a").code(), StatusCode::kUnavailable);
  ASSERT_TRUE(Configure("a=always/data_loss").ok());
  EXPECT_EQ(Evaluate("a").code(), StatusCode::kDataLoss);
  EXPECT_EQ(HitCount("a"), 1u);  // counters restart with the new policy
}

TEST_F(FailpointTest, MultiEntrySpecInstallsAllPoints) {
  ASSERT_TRUE(
      Configure("x=once/not_found;y=every=2/unavailable;z=always/ok").ok());
  EXPECT_EQ(ConfiguredPoints(), (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_EQ(Evaluate("x").code(), StatusCode::kNotFound);
  EXPECT_TRUE(Evaluate("y").ok());
  EXPECT_EQ(Evaluate("y").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Evaluate("z").ok());
}

TEST_F(FailpointTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "no_equals",
      "=always",
      "a=",
      "a=sometimes",
      "a=every=0",
      "a=every=abc",
      "a=prob=1.5@3",
      "a=prob=0.5@x",
      "a=always/bogus_code",
      "a=always/delay=-1",
      "a=always/delay=999999",
      "a=off/unavailable",
  };
  for (const char* spec : bad) {
    EXPECT_EQ(Configure(spec).code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST_F(FailpointTest, MalformedTailInstallsNothing) {
  EXPECT_EQ(Configure("good=always;bad=nonsense").code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ConfiguredPoints().empty());
  EXPECT_TRUE(Evaluate("good").ok());
}

TEST_F(FailpointTest, ConcurrentEvaluateCountsEveryHit) {
  ASSERT_TRUE(Configure("racy=prob=0.5@9/unavailable").ok());
  constexpr int kThreads = 8;
  constexpr int kEvalsPerThread = 2000;
  std::atomic<uint64_t> fired{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kEvalsPerThread; ++i) {
        if (!Evaluate("racy").ok()) fired.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(HitCount("racy"), uint64_t{kThreads} * kEvalsPerThread);
  EXPECT_EQ(TriggerCount("racy"), fired.load());
}

// --- Instrumented sites below the serve layer ------------------------

TEST_F(FailpointTest, ThreadPoolDispatchAcceptsDelayInjection) {
  ASSERT_TRUE(Configure("base.thread_pool.task=every=2/delay=1/ok").ok());
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.ParallelFor(64, [&](int, long begin, long end) {
    for (long i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 64 * 63 / 2);  // every task still ran
  EXPECT_GT(HitCount("base.thread_pool.task"), 0u);
}

TEST_F(FailpointTest, ThreadPoolDispatchIgnoresErrorPayloads) {
  // An error payload at a site that cannot fail must not lose tasks.
  ASSERT_TRUE(Configure("base.thread_pool.task=always/internal").ok());
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  pool.ParallelForChunked(16, 16, [&](int, long, long) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
  // Chunk 0 runs on the caller; the other 15 passed the failpoint.
  EXPECT_EQ(HitCount("base.thread_pool.task"), 15u);
}

std::string WriteCsv(const std::string& name, int rows) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  std::ofstream out(path);
  out << "record_id,timestamp_s,inside,mac,rss_dbm,band\n";
  for (int i = 0; i < rows; ++i) {
    out << i << "," << i * 1.5 << ",1,aa:bb:0" << i % 10 << ",-55,5\n";
  }
  return path;
}

TEST_F(FailpointTest, RecordIoOpenInjectionSurfacesCleanly) {
  const std::string path = WriteCsv("fp_open.csv", 4);
  ASSERT_TRUE(Configure("rf.record_io.open=once/unavailable").ok());
  EXPECT_EQ(rf::LoadRecordsCsv(path).code(), StatusCode::kUnavailable);
  // Second load (failpoint exhausted) parses normally.
  const auto records = rf::LoadRecordsCsv(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records.value().size(), 4u);
}

TEST_F(FailpointTest, RecordIoRowInjectionAbandonsTheParse) {
  const std::string path = WriteCsv("fp_row.csv", 10);
  ASSERT_TRUE(Configure("rf.record_io.row=every=7/data_loss").ok());
  const auto records = rf::LoadRecordsCsv(path);
  EXPECT_EQ(records.code(), StatusCode::kDataLoss);
  EXPECT_EQ(HitCount("rf.record_io.row"), 7u);
}

}  // namespace
}  // namespace gem::fault
