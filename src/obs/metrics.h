#ifndef GEM_OBS_METRICS_H_
#define GEM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gem::obs {

/// Metric label set, e.g. {{"stage", "embed"}}. Order is preserved in
/// exports; (name, labels) identifies one time series.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// Monotonic event counter. Increment is a single relaxed atomic add —
/// safe and cheap to call from any thread on the serving hot path.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Increment returning the pre-increment value (used by the span
  /// sampler to pick every Nth entry without a second atomic).
  uint64_t FetchIncrement() {
    return value_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<uint64_t> value_{0};
};

/// Last-value gauge (e.g. current training loss, graph size).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Atomic add via CAS (std::atomic<double>::fetch_add is not
  /// guaranteed lock-free everywhere).
  void Add(double delta) {
    double old = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(old, old + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bounds are ascending upper bounds; an
/// implicit +Inf bucket catches the overflow, so Observe never drops a
/// sample. The hot path is one binary search plus three relaxed
/// atomics — no locks.
class Histogram {
 public:
  /// `bounds` must be strictly ascending and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1.
  std::vector<uint64_t> bucket_counts() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside
  /// the owning bucket; the +Inf bucket reports its lower bound.
  double Quantile(double q) const;

 private:
  friend class MetricsRegistry;
  void Reset();

  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// 20 exponential buckets from 1 microsecond to ~8.7 seconds —
/// the default for GEM_TRACE_SPAN latency histograms (seconds).
std::vector<double> LatencyBuckets();
/// `count` buckets: start, start*factor, start*factor^2, ...
std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count);

/// Point-in-time copy of one time series, consumed by the exporters.
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  Labels labels;
  /// Counter / gauge value (counters widen to double for export).
  double value = 0.0;
  /// Histogram payload (empty for counters / gauges).
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0.0;
};

/// Process-wide metrics registry. Lookup (GetCounter etc.) takes a
/// mutex and should be done once per call site (cache the returned
/// reference, typically in a function-local static); the returned
/// metric objects are never deallocated or moved, so references stay
/// valid for the process lifetime — Reset() zeroes values in place.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  /// Returns the (name, labels) counter, creating it on first use.
  /// Type mismatches with an existing name are a programming error and
  /// abort via GEM_CHECK.
  Counter& GetCounter(const std::string& name, const Labels& labels = {});
  Gauge& GetGauge(const std::string& name, const Labels& labels = {});
  /// `bounds` is consulted only when the (name, labels) series does
  /// not exist yet; later calls reuse the first bounds.
  Histogram& GetHistogram(const std::string& name,
                          const std::vector<double>& bounds,
                          const Labels& labels = {});

  /// Snapshot of every registered series, sorted by (name, labels).
  ///
  /// Staleness contract: Snapshot() may run concurrently with metric
  /// updates (instrumented hot paths, the ResourceSampler thread).
  /// Every individual FIELD read is an atomic load, so no value ever
  /// tears — a snapshotted counter/gauge is some value the metric
  /// actually held. But the snapshot is NOT a consistent cut:
  ///  - across metrics, each is read at a slightly different instant
  ///    (a gauge written after its neighbor was copied can differ by
  ///    up to one sampler period);
  ///  - within a histogram, buckets/count/sum are separate atomics
  ///    read in sequence, so a concurrent Observe() can appear in
  ///    count but not yet in sum (or vice versa). Aggregates are
  ///    monotone and converge; momentary cross-field skew of a few
  ///    in-flight observations is expected and harmless for export.
  /// Exporters and tests must therefore compare snapshots against
  /// quiesced state or tolerate bounded skew, never assume atomicity
  /// across fields.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Zeroes every metric IN PLACE. Outstanding references (including
  /// the function-local statics at instrumentation sites) stay valid.
  void ResetForTesting();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;

  struct Series {
    MetricType type;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Series& Lookup(const std::string& name, const Labels& labels,
                 MetricType type, const std::vector<double>* bounds);

  mutable std::mutex mutex_;
  // name -> label-key -> series. Metrics are created once and never
  // erased (stable addresses are the hot-path contract).
  std::map<std::string, std::map<std::string, Series>> families_;
};

}  // namespace gem::obs

#endif  // GEM_OBS_METRICS_H_
