#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace gem::obs {
namespace {

/// Finds "name{labels} <value>" in a Prometheus dump and parses the
/// value back (the exporter round-trip check).
double PromValue(const std::string& text, const std::string& series) {
  const size_t pos = text.find("\n" + series + " ");
  EXPECT_NE(pos, std::string::npos) << "series not found: " << series;
  if (pos == std::string::npos) return -1.0;
  return std::stod(text.substr(pos + series.size() + 2));
}

TEST(ScopedSpanTest, RecordsLatencyAndEntryCount) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.ResetForTesting();
  SetSpanSamplingShift(0);  // time every entry for a deterministic count
  for (int i = 0; i < 3; ++i) {
    GEM_TRACE_SPAN("trace_test.outer");
  }
  SetSpanSamplingShift(3);
  Histogram& hist = registry.GetHistogram(
      "gem_span_seconds", LatencyBuckets(), {{"span", "trace_test.outer"}});
  Counter& entries = registry.GetCounter("gem_span_total",
                                         {{"span", "trace_test.outer"}});
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(entries.value(), 3u);
  EXPECT_GE(hist.sum(), 0.0);
}

TEST(ScopedSpanTest, DefaultSamplingTimesEveryEighthEntry) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.ResetForTesting();
  ASSERT_EQ(GetSpanSamplingShift(), 3);
  for (int i = 0; i < 16; ++i) {
    GEM_TRACE_SPAN("trace_test.sampled");
  }
  Histogram& hist = registry.GetHistogram(
      "gem_span_seconds", LatencyBuckets(),
      {{"span", "trace_test.sampled"}});
  Counter& entries = registry.GetCounter("gem_span_total",
                                         {{"span", "trace_test.sampled"}});
  EXPECT_EQ(entries.value(), 16u);  // entry counter is exact
  EXPECT_EQ(hist.count(), 2u);      // entries 0 and 8 were timed
}

TEST(ScopedSpanTest, TracksNestingDepth) {
  EXPECT_EQ(ScopedSpan::CurrentDepth(), 0);
  {
    GEM_TRACE_SPAN("trace_test.depth1");
    EXPECT_EQ(ScopedSpan::CurrentDepth(), 1);
    {
      GEM_TRACE_SPAN("trace_test.depth2");
      EXPECT_EQ(ScopedSpan::CurrentDepth(), 2);
    }
    EXPECT_EQ(ScopedSpan::CurrentDepth(), 1);
  }
  EXPECT_EQ(ScopedSpan::CurrentDepth(), 0);
}

TEST(ScopedSpanTest, DebugLogGoesToInjectedSink) {
  std::vector<std::string> lines;
  SetLogSink([&lines](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  SetLogLevel(LogLevel::kDebug);
  {
    GEM_TRACE_SPAN("trace_test.logged");
  }
  SetLogLevel(LogLevel::kInfo);
  SetLogSink(nullptr);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("span trace_test.logged"), std::string::npos);
  EXPECT_NE(lines.back().find("depth=1"), std::string::npos);
}

TEST(ExportTest, PrometheusRoundTripsCounterGaugeHistogram) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.ResetForTesting();
  registry.GetCounter("export_test_total", {{"stage", "embed"}})
      .Increment(42);
  registry.GetGauge("export_test_gauge").Set(1.5);
  Histogram& hist =
      registry.GetHistogram("export_test_hist", {1.0, 2.0});
  hist.Observe(0.5);
  hist.Observe(1.5);
  hist.Observe(9.0);

  std::string text = "\n";
  text += ExportPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE export_test_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE export_test_hist histogram"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(
      PromValue(text, "export_test_total{stage=\"embed\"}"), 42.0);
  EXPECT_DOUBLE_EQ(PromValue(text, "export_test_gauge"), 1.5);
  // Cumulative buckets: le=1 -> 1, le=2 -> 2, +Inf -> 3.
  EXPECT_DOUBLE_EQ(PromValue(text, "export_test_hist_bucket{le=\"1\"}"),
                   1.0);
  EXPECT_DOUBLE_EQ(PromValue(text, "export_test_hist_bucket{le=\"2\"}"),
                   2.0);
  EXPECT_DOUBLE_EQ(
      PromValue(text, "export_test_hist_bucket{le=\"+Inf\"}"), 3.0);
  EXPECT_DOUBLE_EQ(PromValue(text, "export_test_hist_count"), 3.0);
  EXPECT_DOUBLE_EQ(PromValue(text, "export_test_hist_sum"), 11.0);
}

TEST(ExportTest, JsonLinesCarriesValuesAndBuckets) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.ResetForTesting();
  registry.GetCounter("export_json_total").Increment(7);
  registry.GetHistogram("export_json_hist", {1.0}).Observe(0.25);

  const std::string text = ExportJsonLines(registry.Snapshot());
  EXPECT_NE(text.find("{\"name\":\"export_json_total\",\"type\":"
                      "\"counter\",\"labels\":{},\"value\":7}"),
            std::string::npos);
  EXPECT_NE(text.find("\"name\":\"export_json_hist\""), std::string::npos);
  EXPECT_NE(text.find("\"count\":1"), std::string::npos);
  EXPECT_NE(text.find("\"buckets\":[1,0]"), std::string::npos);
}

TEST(ExportTest, TableListsHistogramQuantiles) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.ResetForTesting();
  registry.GetCounter("export_table_total", {{"decision", "inside"}})
      .Increment(9);
  Histogram& hist = registry.GetHistogram("export_table_hist", {1.0, 2.0});
  hist.Observe(1.5);

  const std::string text = ExportTable(registry.Snapshot());
  EXPECT_NE(text.find("export_table_total"), std::string::npos);
  EXPECT_NE(text.find("decision=inside"), std::string::npos);
  EXPECT_NE(text.find("export_table_hist"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
}

TEST(ExportTest, ParsesFormatNames) {
  EXPECT_EQ(ParseExportFormat("prom"), ExportFormat::kPrometheus);
  EXPECT_EQ(ParseExportFormat("prometheus"), ExportFormat::kPrometheus);
  EXPECT_EQ(ParseExportFormat("json"), ExportFormat::kJsonLines);
  EXPECT_EQ(ParseExportFormat("table"), ExportFormat::kTable);
  EXPECT_EQ(ParseExportFormat("xml"), std::nullopt);
}

TEST(LoggingTest, ConcurrentLinesDoNotInterleave) {
  std::vector<std::string> lines;
  SetLogSink([&lines](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 100; ++i) {
        GEM_LOG(Info) << "thread " << t << " line " << i << " end";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  SetLogSink(nullptr);
  ASSERT_EQ(lines.size(), 400u);
  for (const std::string& line : lines) {
    // A complete, non-interleaved line mentions exactly one thread and
    // terminates with the sentinel.
    EXPECT_NE(line.find("thread "), std::string::npos);
    EXPECT_EQ(line.substr(line.size() - 4), " end");
  }
}

}  // namespace
}  // namespace gem::obs
