#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"

namespace gem::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  GEM_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    GEM_CHECK(bounds_[i] > bounds_[i - 1]);
  }
}

void Histogram::Observe(double value) {
  const auto it =
      std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double old = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(old, old + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::Quantile(double q) const {
  GEM_CHECK(q >= 0.0 && q <= 1.0);
  const std::vector<uint64_t> counts = bucket_counts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const uint64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= rank) {
      if (i == bounds_.size()) return bounds_.back();  // +Inf bucket
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(counts[i]);
      return lo + within * (hi - lo);
    }
    cumulative = next;
  }
  return bounds_.back();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> LatencyBuckets() {
  // 1us .. ~8.7s in x2.25 steps: enough resolution to separate the
  // paper's three inference stages (tens of us .. a few ms) from
  // training epochs (hundreds of ms .. seconds).
  return ExponentialBuckets(1e-6, 2.25, 20);
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count) {
  GEM_CHECK(start > 0.0 && factor > 1.0 && count >= 1);
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

namespace {

/// Canonical map key for a label set ("k1=v1,k2=v2"). Label values in
/// GEM are short identifiers; '=' / ',' inside values would be
/// pathological but still yield a stable (if ugly) key.
std::string LabelKey(const Labels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    if (!key.empty()) key += ',';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

}  // namespace

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

MetricsRegistry::Series& MetricsRegistry::Lookup(
    const std::string& name, const Labels& labels, MetricType type,
    const std::vector<double>* bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& family = families_[name];
  auto [it, inserted] = family.try_emplace(LabelKey(labels));
  Series& series = it->second;
  if (inserted) {
    series.type = type;
    series.labels = labels;
    switch (type) {
      case MetricType::kCounter:
        series.counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        series.gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        GEM_CHECK(bounds != nullptr);
        series.histogram = std::make_unique<Histogram>(*bounds);
        break;
    }
  } else {
    GEM_CHECK(series.type == type);  // one type per metric name
  }
  return series;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  return *Lookup(name, labels, MetricType::kCounter, nullptr).counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  return *Lookup(name, labels, MetricType::kGauge, nullptr).gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds,
                                         const Labels& labels) {
  return *Lookup(name, labels, MetricType::kHistogram, &bounds).histogram;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> out;
  for (const auto& [name, family] : families_) {
    for (const auto& [key, series] : family) {
      MetricSnapshot snap;
      snap.name = name;
      snap.type = series.type;
      snap.labels = series.labels;
      switch (series.type) {
        case MetricType::kCounter:
          snap.value = static_cast<double>(series.counter->value());
          break;
        case MetricType::kGauge:
          snap.value = series.gauge->value();
          break;
        case MetricType::kHistogram:
          snap.bounds = series.histogram->bounds();
          snap.buckets = series.histogram->bucket_counts();
          snap.count = series.histogram->count();
          snap.sum = series.histogram->sum();
          break;
      }
      out.push_back(std::move(snap));
    }
  }
  return out;
}

void MetricsRegistry::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, family] : families_) {
    for (auto& [key, series] : family) {
      switch (series.type) {
        case MetricType::kCounter:
          series.counter->Reset();
          break;
        case MetricType::kGauge:
          series.gauge->Reset();
          break;
        case MetricType::kHistogram:
          series.histogram->Reset();
          break;
      }
    }
  }
}

}  // namespace gem::obs
