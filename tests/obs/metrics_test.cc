#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace gem::obs {
namespace {

TEST(CounterTest, IncrementsAndReads) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

TEST(HistogramTest, BucketsObservationsByUpperBound) {
  Histogram hist({1.0, 2.0, 4.0});
  hist.Observe(0.5);   // bucket 0 (<= 1)
  hist.Observe(1.0);   // bucket 0 (bounds are inclusive upper bounds)
  hist.Observe(1.5);   // bucket 1
  hist.Observe(100.0); // +Inf bucket
  const std::vector<uint64_t> counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 103.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 103.0 / 4.0);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  Histogram hist({1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) hist.Observe(1.5);  // all in (1, 2]
  // Every rank lands in bucket 1; interpolation stays within (1, 2].
  EXPECT_GT(hist.Quantile(0.5), 1.0);
  EXPECT_LE(hist.Quantile(0.5), 2.0);
  EXPECT_GT(hist.Quantile(0.99), 1.0);
  EXPECT_LE(hist.Quantile(0.99), 2.0);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram hist({1.0});
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 0.0);
}

TEST(BucketHelpersTest, Exponential) {
  const std::vector<double> exp = ExponentialBuckets(1.0, 2.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 1.0);
  EXPECT_DOUBLE_EQ(exp[3], 8.0);
  EXPECT_FALSE(LatencyBuckets().empty());
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameInstance) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter& a = registry.GetCounter("registry_test_counter");
  Counter& b = registry.GetCounter("registry_test_counter");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1u);
}

TEST(MetricsRegistryTest, DistinctLabelsAreDistinctSeries) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter& inside =
      registry.GetCounter("registry_test_labeled", {{"decision", "inside"}});
  Counter& outside =
      registry.GetCounter("registry_test_labeled", {{"decision", "outside"}});
  EXPECT_NE(&inside, &outside);
  inside.Increment(3);
  outside.Increment(5);
  EXPECT_EQ(inside.value(), 3u);
  EXPECT_EQ(outside.value(), 5u);

  int found = 0;
  for (const MetricSnapshot& snap : registry.Snapshot()) {
    if (snap.name != "registry_test_labeled") continue;
    ++found;
    ASSERT_EQ(snap.labels.size(), 1u);
    EXPECT_EQ(snap.labels[0].first, "decision");
    if (snap.labels[0].second == "inside") {
      EXPECT_DOUBLE_EQ(snap.value, 3.0);
    } else {
      EXPECT_EQ(snap.labels[0].second, "outside");
      EXPECT_DOUBLE_EQ(snap.value, 5.0);
    }
  }
  EXPECT_EQ(found, 2);
}

TEST(MetricsRegistryTest, HistogramReusesFirstBounds) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Histogram& a =
      registry.GetHistogram("registry_test_hist", {1.0, 2.0});
  Histogram& b =
      registry.GetHistogram("registry_test_hist", {5.0, 6.0, 7.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.bounds().size(), 2u);
}

TEST(MetricsRegistryTest, ResetZeroesInPlaceKeepingReferences) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter& counter = registry.GetCounter("registry_test_reset");
  Histogram& hist = registry.GetHistogram("registry_test_reset_hist", {1.0});
  Gauge& gauge = registry.GetGauge("registry_test_reset_gauge");
  counter.Increment(7);
  hist.Observe(0.5);
  gauge.Set(3.0);
  registry.ResetForTesting();
  EXPECT_EQ(counter.value(), 0u);  // same object, zeroed
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  Counter& counter = registry.GetCounter("registry_test_concurrent");
  Gauge& gauge = registry.GetGauge("registry_test_concurrent_gauge");
  Histogram& hist = registry.GetHistogram("registry_test_concurrent_hist",
                                          LatencyBuckets());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &gauge, &hist, t] {
      for (int i = 0; i < kIncrements; ++i) {
        counter.Increment();
        gauge.Add(1.0);
        hist.Observe(1e-6 * (t + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_DOUBLE_EQ(gauge.value(),
                   static_cast<double>(kThreads) * kIncrements);
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads) * kIncrements);
  uint64_t bucket_total = 0;
  for (uint64_t c : hist.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, hist.count());
}

TEST(MetricsRegistryTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(kThreads, nullptr);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      seen[t] = &registry.GetCounter("registry_test_race",
                                     {{"k", "v"}});
      seen[t]->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->value(), static_cast<uint64_t>(kThreads));
}

}  // namespace
}  // namespace gem::obs
