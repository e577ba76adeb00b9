// gem::obs v2 suite: the per-thread timeline profiler, trace-context
// propagation across ThreadPool / serve::Engine thread hops, the
// Chrome trace-event JSON writer, stage-cost attribution, the
// resource sampler, Prometheus label escaping, and the
// MetricsRegistry::Snapshot staleness contract. Runs under TSan in CI
// (`ctest -R ^obs_`), so every concurrent scenario here doubles as a
// race check.

#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_pool.h"
#include "obs/attribution.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "serve/engine.h"
#include "serve/fence_registry.h"

namespace gem::obs {
namespace {

using std::chrono::steady_clock;

/// Re-enables with default options and guarantees Disable+Clear on
/// exit, so timeline state never leaks between tests.
class ScopedTimeline {
 public:
  explicit ScopedTimeline(TimelineOptions options = {}) {
    Timeline::Enable(options);
  }
  ~ScopedTimeline() {
    Timeline::Disable();
    Timeline::Clear();
  }
};

std::vector<TimelineEventView> EventsNamed(
    const std::vector<TimelineEventView>& events, const std::string& name) {
  std::vector<TimelineEventView> out;
  for (const TimelineEventView& view : events) {
    if (view.event.name != nullptr && name == view.event.name) {
      out.push_back(view);
    }
  }
  return out;
}

TEST(TimelineTest, DisabledRecordingIsANoOp) {
  ASSERT_FALSE(Timeline::IsEnabled());
  const auto now = steady_clock::now();
  Timeline::RecordSpan("timeline_test.noop", now, now, 1, 2, 0, 0);
  Timeline::RecordInstant("timeline_test.noop");
  Timeline::RecordCounter("timeline_test.noop", 1.0);
  EXPECT_TRUE(EventsNamed(Timeline::Snapshot(), "timeline_test.noop")
                  .empty());
}

TEST(TimelineTest, RecordsSpanIdentityAndClampsZeroDuration) {
  ScopedTimeline timeline;
  const auto now = steady_clock::now();
  Timeline::RecordSpan("timeline_test.span", now, now, /*trace_id=*/7,
                       /*span_id=*/8, /*parent_span_id=*/6, /*depth=*/2);
  const auto spans =
      EventsNamed(Timeline::Snapshot(), "timeline_test.span");
  ASSERT_EQ(spans.size(), 1u);
  const TimelineEvent& event = spans[0].event;
  EXPECT_EQ(event.kind, TimelineEventKind::kSpan);
  EXPECT_EQ(event.trace_id, 7u);
  EXPECT_EQ(event.span_id, 8u);
  EXPECT_EQ(event.parent_span_id, 6u);
  EXPECT_EQ(event.depth, 2);
  // Zero-length spans are clamped to 1ns so a B never sorts after its
  // own E in the exported JSON.
  EXPECT_GE(event.dur_ns, 1);
}

TEST(TimelineTest, ScopedSpanMintsContextAndRestoresParent) {
  ScopedTimeline timeline;
  TraceContext outer_context, inner_context;
  {
    GEM_TRACE_SPAN("timeline_test.outer");
    outer_context = CurrentTraceContext();
    EXPECT_NE(outer_context.trace_id, 0u);
    EXPECT_NE(outer_context.span_id, 0u);
    {
      GEM_TRACE_SPAN("timeline_test.inner");
      inner_context = CurrentTraceContext();
      // Same operation, new span id.
      EXPECT_EQ(inner_context.trace_id, outer_context.trace_id);
      EXPECT_NE(inner_context.span_id, outer_context.span_id);
    }
    EXPECT_EQ(CurrentTraceContext().span_id, outer_context.span_id);
  }
  EXPECT_FALSE(CurrentTraceContext().active());

  const auto events = Timeline::Snapshot();
  const auto inner = EventsNamed(events, "timeline_test.inner");
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner[0].event.parent_span_id, outer_context.span_id);
  EXPECT_EQ(inner[0].event.trace_id, outer_context.trace_id);
}

TEST(ThreadPoolTraceTest, ContextPropagatesAcrossSubmitHop) {
  ScopedTimeline timeline;
  ThreadPool pool(2);

  const TraceContext submitter{NewTraceId(), NewSpanId()};
  TraceContext in_task;
  std::promise<void> done;
  {
    TraceContextScope scope(submitter);
    pool.Submit([&] {
      in_task = CurrentTraceContext();
      done.set_value();
    });
  }
  done.get_future().wait();
  pool.Shutdown();

  // The worker ran the task under the submitter's trace with a fresh
  // task span id.
  EXPECT_EQ(in_task.trace_id, submitter.trace_id);
  EXPECT_NE(in_task.span_id, submitter.span_id);
  EXPECT_NE(in_task.span_id, 0u);

  const auto events = Timeline::Snapshot();
  const auto waits = EventsNamed(events, "pool.queue_wait");
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].event.kind, TimelineEventKind::kAsyncSpan);
  EXPECT_EQ(waits[0].event.trace_id, submitter.trace_id);
  EXPECT_EQ(waits[0].event.parent_span_id, submitter.span_id);

  const auto tasks = EventsNamed(events, "pool.task");
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].event.trace_id, submitter.trace_id);
  EXPECT_EQ(tasks[0].event.span_id, in_task.span_id);
  EXPECT_EQ(tasks[0].event.parent_span_id, submitter.span_id);
  // The worker track carries the name the pool assigned it.
  EXPECT_EQ(tasks[0].thread_name.rfind("pool-worker-", 0), 0u);
}

TEST(ThreadPoolTraceTest, InlineExecutionKeepsContextNoQueueWait) {
  ScopedTimeline timeline;
  ThreadPool pool(1);  // no workers: Submit runs inline

  const TraceContext submitter{NewTraceId(), NewSpanId()};
  TraceContext in_task;
  {
    TraceContextScope scope(submitter);
    pool.Submit([&] { in_task = CurrentTraceContext(); });
  }
  // Inline execution IS the caller: same span, and no queue to wait in.
  EXPECT_EQ(in_task.trace_id, submitter.trace_id);
  EXPECT_EQ(in_task.span_id, submitter.span_id);
  EXPECT_TRUE(
      EventsNamed(Timeline::Snapshot(), "pool.queue_wait").empty());
}

TEST(TimelineTest, FullRingDropsNewEventsAndCountsThem) {
  TimelineOptions options;
  options.events_per_thread = 4;
  ScopedTimeline timeline(options);
  // A fresh thread gets a fresh ring sized by the active options (the
  // main test thread's ring was created earlier at default capacity).
  std::thread recorder([] {
    for (int i = 0; i < 10; ++i) {
      Timeline::RecordCounter("timeline_test.ring", static_cast<double>(i));
    }
  });
  recorder.join();

  EXPECT_EQ(Timeline::RecordedEvents(), 4u);
  EXPECT_EQ(Timeline::DroppedEvents(), 6u);
  // Drop-newest: the four OLDEST samples survive, never overwritten.
  const auto events =
      EventsNamed(Timeline::Snapshot(), "timeline_test.ring");
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[i].event.value, static_cast<double>(i));
  }
}

// A thread's ring is allocated at its first recorded event, not when
// the thread names itself: a thread named while the profiler was off
// takes its capacity from the Enable active when it first records.
TEST(TimelineTest, NamingAThreadWhileDisabledAllocatesNoRing) {
  ASSERT_FALSE(Timeline::IsEnabled());
  std::latch named(1);
  std::latch enabled(1);
  std::thread recorder([&] {
    Timeline::SetCurrentThreadName("timeline_test.named_early");
    named.count_down();
    enabled.wait();
    for (int i = 0; i < 10; ++i) {
      Timeline::RecordCounter("timeline_test.late_ring",
                              static_cast<double>(i));
    }
  });
  named.wait();
  TimelineOptions options;
  options.events_per_thread = 4;
  ScopedTimeline timeline(options);
  enabled.count_down();
  recorder.join();

  EXPECT_EQ(Timeline::RecordedEvents(), 4u);
  EXPECT_EQ(Timeline::DroppedEvents(), 6u);
  const auto events =
      EventsNamed(Timeline::Snapshot(), "timeline_test.late_ring");
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().thread_name, "timeline_test.named_early");
}

TEST(TimelineTest, QueueWaitUnderEngineBackpressure) {
  ScopedTimeline timeline;
  Timeline::SetCurrentThreadName("main");

  // An empty registry still exercises the whole queue path: requests
  // against a fence that is not loaded answer kNotFound, but they
  // queue, wait, and trace exactly like live ones.
  serve::FenceRegistry registry;
  serve::EngineOptions options;
  options.num_threads = 1;
  serve::Engine engine(&registry, options);

  const TraceContext submitter{NewTraceId(), NewSpanId()};
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<int> responses{0};
  {
    TraceContextScope scope(submitter);
    // First job parks the lone worker in its callback; the next two
    // must sit in the queue behind it.
    ASSERT_TRUE(engine
                    .Submit({"missing", {}, {}},
                            [&](serve::ServeResponse) {
                              released.wait();
                              responses.fetch_add(1);
                            })
                    .ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(engine
                      .Submit({"missing", {}, {}},
                              [&](serve::ServeResponse) {
                                responses.fetch_add(1);
                              })
                      .ok());
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  release.set_value();
  engine.Shutdown();
  EXPECT_EQ(responses.load(), 3);

  const auto waits =
      EventsNamed(Timeline::Snapshot(), "serve.queue_wait");
  ASSERT_EQ(waits.size(), 3u);
  int64_t longest_wait_ns = 0;
  for (const TimelineEventView& wait : waits) {
    EXPECT_EQ(wait.event.kind, TimelineEventKind::kAsyncSpan);
    EXPECT_EQ(wait.event.trace_id, submitter.trace_id);
    EXPECT_EQ(wait.event.parent_span_id, submitter.span_id);
    EXPECT_EQ(wait.thread_name.rfind("serve-worker-", 0), 0u);
    longest_wait_ns = std::max(longest_wait_ns, wait.event.dur_ns);
  }
  // The queued jobs measurably waited out the parked worker.
  EXPECT_GE(longest_wait_ns, 20'000'000);
}

/// Minimal Chrome trace-event validator: walks the serialized rows in
/// order and checks that sync B/E and async b/e events pair up and
/// that sync nesting never goes negative. (Recording is confined to
/// one thread, so a global scan is a valid per-track scan.)
void CheckMatchedPhases(const std::string& json) {
  int sync_depth = 0;
  int async_open = 0;
  size_t pos = 0;
  while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
    const char phase = json[pos + 6];
    pos += 7;
    switch (phase) {
      case 'B':
        ++sync_depth;
        break;
      case 'E':
        --sync_depth;
        ASSERT_GE(sync_depth, 0) << "E before its B at byte " << pos;
        break;
      case 'b':
        ++async_open;
        break;
      case 'e':
        --async_open;
        ASSERT_GE(async_open, 0) << "async e before its b";
        break;
      default:
        break;  // C / M / i rows carry no pairing constraint
    }
  }
  EXPECT_EQ(sync_depth, 0) << "unclosed B span(s)";
  EXPECT_EQ(async_open, 0) << "unclosed async span(s)";
}

TEST(ChromeTraceJsonTest, GoldenSchemaWithMatchedNesting) {
  ScopedTimeline timeline;
  Timeline::SetCurrentThreadName("main");
  const auto t0 = steady_clock::now();
  using std::chrono::microseconds;
  const uint64_t trace_id = NewTraceId();
  const uint64_t outer_id = NewSpanId();
  // outer [0us,100us] wrapping inner [10us,40us]; an async wait and a
  // counter overlapping both.
  Timeline::RecordSpan("chrome_test.inner", t0 + microseconds(10),
                       t0 + microseconds(40), trace_id, NewSpanId(),
                       outer_id, 1);
  Timeline::RecordSpan("chrome_test.outer", t0, t0 + microseconds(100),
                       trace_id, outer_id, 0, 0);
  Timeline::RecordAsyncSpan("chrome_test.wait", t0, t0 + microseconds(25),
                            trace_id, NewSpanId(), outer_id);
  Timeline::RecordCounter("chrome_test.rss_mb", 12.5);

  const std::string json = ChromeTraceJson(Timeline::Snapshot());
  // Envelope chrome://tracing and Perfetto load directly.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // One row of each phase family.
  EXPECT_NE(json.find("\"name\":\"chrome_test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"queue\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"main\""), std::string::npos);
  // Span rows carry the trace identity for Perfetto queries.
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\""), std::string::npos);
  CheckMatchedPhases(json);
}

TimelineEventView MakeSpan(const char* name, int64_t start_ns,
                           int64_t dur_ns,
                           TimelineEventKind kind = TimelineEventKind::kSpan,
                           int tid = 0) {
  TimelineEventView view;
  view.tid = tid;
  view.event.kind = kind;
  view.event.name = name;
  view.event.start_ns = start_ns;
  view.event.dur_ns = dur_ns;
  return view;
}

const StageCost* FindStage(const AttributionReport& report,
                           const std::string& stage) {
  for (const StageCost& cost : report.by_stage) {
    if (cost.stage == stage) return &cost;
  }
  return nullptr;
}

TEST(AttributionTest, ExclusiveIsInclusiveMinusDirectChildren) {
  // outer [1us,101us] > inner [11us,41us] > leaf [15us,20us],
  // plus a second inner [51us,61us].
  const std::vector<TimelineEventView> events = {
      MakeSpan("outer", 1000, 100000),
      MakeSpan("inner", 11000, 30000),
      MakeSpan("leaf", 15000, 5000),
      MakeSpan("inner", 51000, 10000),
  };
  const AttributionReport report = BuildAttribution(events);

  const StageCost* outer = FindStage(report, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_DOUBLE_EQ(outer->inclusive_seconds, 100000e-9);
  // Direct children only: both inners subtract, the leaf does not.
  EXPECT_DOUBLE_EQ(outer->exclusive_seconds, 60000e-9);

  const StageCost* inner = FindStage(report, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);
  EXPECT_DOUBLE_EQ(inner->inclusive_seconds, 40000e-9);
  EXPECT_DOUBLE_EQ(inner->exclusive_seconds, 35000e-9);

  const StageCost* leaf = FindStage(report, "leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_DOUBLE_EQ(leaf->exclusive_seconds, leaf->inclusive_seconds);

  // Sorted by exclusive share, biggest first.
  ASSERT_EQ(report.by_stage.size(), 3u);
  EXPECT_EQ(report.by_stage[0].stage, "outer");
  EXPECT_EQ(report.by_stage[1].stage, "inner");
  EXPECT_EQ(report.by_stage[2].stage, "leaf");
}

TEST(AttributionTest, AsyncSpansKeepExclusiveEqualInclusive) {
  // A queue wait OVERLAPS the executing span; it must neither nest
  // under it nor steal its exclusive time.
  const std::vector<TimelineEventView> events = {
      MakeSpan("work", 1000, 50000),
      MakeSpan("wait", 1000, 80000, TimelineEventKind::kAsyncSpan),
  };
  const AttributionReport report = BuildAttribution(events);
  const StageCost* work = FindStage(report, "work");
  const StageCost* wait = FindStage(report, "wait");
  ASSERT_NE(work, nullptr);
  ASSERT_NE(wait, nullptr);
  EXPECT_DOUBLE_EQ(work->exclusive_seconds, 50000e-9);
  EXPECT_DOUBLE_EQ(wait->inclusive_seconds, 80000e-9);
  EXPECT_DOUBLE_EQ(wait->exclusive_seconds, 80000e-9);
}

TEST(AttributionTest, WindowFiltersSpansByStartTime) {
  const std::vector<TimelineEventView> events = {
      MakeSpan("outer", 1000, 100000),
      MakeSpan("inner", 11000, 30000),
      MakeSpan("inner", 51000, 10000),
  };
  // [0, 50us) keeps outer and the first inner only — the per-run
  // windows the benches use to split one recording by thread count.
  const AttributionReport report = BuildAttribution(events, 0, 50000);
  const StageCost* inner = FindStage(report, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 1u);
  const StageCost* outer = FindStage(report, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_DOUBLE_EQ(outer->exclusive_seconds, 70000e-9);
}

TEST(AttributionTest, JsonAndTableCarryEveryStage) {
  const std::vector<TimelineEventView> events = {
      MakeSpan("alpha", 1000, 40000),
      MakeSpan("beta", 51000, 20000),
  };
  const AttributionReport report = BuildAttribution(events);
  const std::string json = AttributionJson(report);
  EXPECT_NE(json.find("\"stage\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"exclusive_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"inclusive_seconds\""), std::string::npos);
  const std::string table = AttributionTable(report);
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
}

TEST(ResourceSamplerTest, SampleNowReadsProcSelf) {
  const ResourceSample sample = ResourceSampler::SampleNow();
  EXPECT_GT(sample.rss_bytes, 0.0);
  EXPECT_GE(sample.num_threads, 1);
  EXPECT_GE(sample.user_cpu_seconds, 0.0);
  EXPECT_GE(sample.sys_cpu_seconds, 0.0);
}

TEST(ResourceSamplerTest, PublishesGaugesAndTraceCounters) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.ResetForTesting();
  ScopedTimeline timeline;
  {
    ResourceSampler::Options options;
    options.period_ms = 5;
    ResourceSampler sampler(options);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sampler.Stop();  // idempotent with the destructor's Stop
  }
  EXPECT_GT(registry.GetGauge("gem_process_rss_bytes").value(), 0.0);
  EXPECT_GE(registry.GetGauge("gem_process_threads").value(), 1.0);
  EXPECT_GE(
      registry.GetGauge("gem_process_cpu_seconds", {{"mode", "user"}})
          .value(),
      0.0);
  // The same readings land in the trace as counter series.
  const auto rss_rows =
      EventsNamed(Timeline::Snapshot(), "rss_mb");
  ASSERT_FALSE(rss_rows.empty());
  EXPECT_EQ(rss_rows[0].event.kind, TimelineEventKind::kCounter);
  EXPECT_GT(rss_rows[0].event.value, 0.0);
}

TEST(ExportEscapeTest, PrometheusEscapesLabelValues) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.ResetForTesting();
  registry
      .GetCounter("escape_test_total", {{"path", "a\"b\\c\nd"}})
      .Increment(1);
  const std::string text = ExportPrometheus(registry.Snapshot());
  // Quote, backslash, and newline are escaped per the Prometheus text
  // exposition format; the raw newline must NOT appear mid-series.
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
  EXPECT_EQ(text.find("a\"b"), std::string::npos);
}

TEST(MetricsSnapshotTest, ConcurrentSnapshotsNeverTearOrRegress) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.ResetForTesting();
  constexpr int kWriters = 4;
  constexpr int kIncrements = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&registry] {
      Counter& counter = registry.GetCounter("tear_test_total");
      Histogram& hist =
          registry.GetHistogram("tear_test_hist", {1.0, 2.0});
      for (int i = 0; i < kIncrements; ++i) {
        counter.Increment();
        hist.Observe(static_cast<double>(i % 3) + 0.5);
      }
    });
  }
  // Per the Snapshot() staleness contract each field is an atomic
  // load: values may be mutually stale but never torn, so the counter
  // reads monotonically and bucket sums never exceed a LATER count.
  double last_count = 0.0;
  while (last_count < 1.0 * kWriters * kIncrements) {
    for (const MetricSnapshot& metric : registry.Snapshot()) {
      if (metric.name == "tear_test_total") {
        EXPECT_GE(metric.value, last_count);
        last_count = metric.value;
      }
    }
  }
  for (std::thread& writer : writers) writer.join();
  const auto snapshot = registry.Snapshot();
  for (const MetricSnapshot& metric : snapshot) {
    if (metric.name == "tear_test_hist") {
      EXPECT_EQ(metric.count,
                static_cast<uint64_t>(kWriters) * kIncrements);
    }
  }
}

}  // namespace
}  // namespace gem::obs
