#include "obs/attribution.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "base/text_table.h"

namespace gem::obs {
namespace {

struct Accum {
  uint64_t count = 0;
  int64_t inclusive_ns = 0;
  int64_t exclusive_ns = 0;
};

/// One span being swept: how much of its time is covered by direct
/// children accumulates while it sits on the stack.
struct OpenSpan {
  const TimelineEvent* event;
  int64_t end_ns;
  int64_t child_ns = 0;
};

void Close(const OpenSpan& open, std::map<std::string, Accum>& accum) {
  Accum& a = accum[open.event->name];
  a.count += 1;
  a.inclusive_ns += open.event->dur_ns;
  a.exclusive_ns += open.event->dur_ns - open.child_ns;
}

}  // namespace

AttributionReport BuildAttribution(
    const std::vector<TimelineEventView>& events, int64_t window_begin_ns,
    int64_t window_end_ns) {
  // Partition sync spans by thread; async spans accumulate directly.
  std::map<int, std::vector<const TimelineEvent*>> spans_by_tid;
  std::map<std::string, Accum> accum;
  for (const TimelineEventView& view : events) {
    const TimelineEvent& e = view.event;
    if (e.start_ns < window_begin_ns || e.start_ns >= window_end_ns) {
      continue;
    }
    if (e.kind == TimelineEventKind::kSpan) {
      spans_by_tid[view.tid].push_back(&e);
    } else if (e.kind == TimelineEventKind::kAsyncSpan) {
      Accum& a = accum[e.name];
      a.count += 1;
      a.inclusive_ns += e.dur_ns;
      a.exclusive_ns += e.dur_ns;  // waits have no children
    }
  }

  for (auto& [tid, spans] : spans_by_tid) {
    // Outer spans first at equal starts (longer duration sorts first),
    // so the stack sweep sees parents before their children.
    std::sort(spans.begin(), spans.end(),
              [](const TimelineEvent* a, const TimelineEvent* b) {
                if (a->start_ns != b->start_ns) {
                  return a->start_ns < b->start_ns;
                }
                return a->dur_ns > b->dur_ns;
              });
    std::vector<OpenSpan> stack;
    for (const TimelineEvent* e : spans) {
      while (!stack.empty() && stack.back().end_ns <= e->start_ns) {
        Close(stack.back(), accum);
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_ns += e->dur_ns;
      stack.push_back({e, e->start_ns + e->dur_ns});
    }
    while (!stack.empty()) {
      Close(stack.back(), accum);
      stack.pop_back();
    }
  }

  AttributionReport report;
  for (const auto& [stage, a] : accum) {
    StageCost cost;
    cost.stage = stage;
    cost.count = a.count;
    cost.inclusive_seconds = a.inclusive_ns * 1e-9;
    cost.exclusive_seconds = a.exclusive_ns * 1e-9;
    report.by_stage.push_back(std::move(cost));
  }
  std::sort(report.by_stage.begin(), report.by_stage.end(),
            [](const StageCost& a, const StageCost& b) {
              return a.exclusive_seconds > b.exclusive_seconds;
            });
  return report;
}

std::string AttributionTable(const AttributionReport& report) {
  double total_exclusive = 0.0;
  for (const StageCost& cost : report.by_stage) {
    total_exclusive += cost.exclusive_seconds;
  }
  TextTable table({"stage", "count", "inclusive_s", "exclusive_s", "excl_%"});
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return std::string(buf);
  };
  for (const StageCost& cost : report.by_stage) {
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%.1f",
                  total_exclusive > 0.0
                      ? 100.0 * cost.exclusive_seconds / total_exclusive
                      : 0.0);
    table.AddRow({cost.stage, std::to_string(cost.count),
                  fmt(cost.inclusive_seconds), fmt(cost.exclusive_seconds),
                  pct});
  }
  return table.ToString();
}

std::string AttributionJson(const AttributionReport& report) {
  std::string out = "[";
  bool first = true;
  for (const StageCost& cost : report.by_stage) {
    if (!first) out += ",";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"stage\":\"%s\",\"count\":%llu,"
                  "\"inclusive_seconds\":%.6f,\"exclusive_seconds\":%.6f}",
                  cost.stage.c_str(),
                  static_cast<unsigned long long>(cost.count),
                  cost.inclusive_seconds, cost.exclusive_seconds);
    out += buf;
  }
  out += "]";
  return out;
}

}  // namespace gem::obs
