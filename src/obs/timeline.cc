#include "obs/timeline.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

namespace gem::obs {
namespace {

using Clock = std::chrono::steady_clock;

/// The options' ring capacity, read when a thread records its first
/// event.
size_t EventsPerThread();

/// Fixed-capacity, single-writer event buffer for one thread. The
/// owning thread is the only writer; readers take an acquire prefix
/// of `size` and never touch entries past it, so no entry is read
/// while it is being written.
struct ThreadBuffer {
  explicit ThreadBuffer(int tid_in) : tid(tid_in) {}

  const int tid;
  /// The ring, allocated at the thread's first recorded event: a
  /// thread that only names itself with the profiler off never pays
  /// for one. `size` is still 0 while the owner sizes it, so no
  /// reader touches it then.
  std::vector<TimelineEvent> events;
  bool sized = false;  // owner thread only
  std::atomic<size_t> size{0};
  std::atomic<uint64_t> dropped{0};

  std::mutex name_mutex;
  std::string name;  // guarded by name_mutex

  void Push(const TimelineEvent& event) {
    if (!sized) {
      events.resize(EventsPerThread());
      sized = true;
    }
    const size_t n = size.load(std::memory_order_relaxed);
    if (n >= events.size()) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events[n] = event;
    size.store(n + 1, std::memory_order_release);
  }
};

struct TimelineState {
  std::mutex mutex;
  // shared_ptr so a buffer outlives its thread: the registry keeps
  // one reference, the thread_local holder another.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;  // guarded
  size_t events_per_thread = TimelineOptions{}.events_per_thread;
  std::atomic<int64_t> epoch_ns{0};
};

TimelineState& State() {
  static TimelineState* state = new TimelineState();
  return *state;
}

size_t EventsPerThread() {
  TimelineState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.events_per_thread;
}

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> holder = [] {
    TimelineState& state = State();
    std::lock_guard<std::mutex> lock(state.mutex);
    auto buffer = std::make_shared<ThreadBuffer>(
        static_cast<int>(state.buffers.size()));
    state.buffers.push_back(buffer);
    return buffer;
  }();
  return *holder;
}

int64_t ToEpochNs(Clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
             .count() -
         State().epoch_ns.load(std::memory_order_relaxed);
}

void AppendJsonEscaped(std::string& out, const char* text) {
  for (const char* p = text; *p; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

std::atomic<bool> Timeline::enabled_{false};

void Timeline::Enable(TimelineOptions options) {
  TimelineState& state = State();
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.events_per_thread = options.events_per_thread;
    for (auto& buffer : state.buffers) {
      buffer->size.store(0, std::memory_order_release);
      buffer->dropped.store(0, std::memory_order_relaxed);
    }
  }
  state.epoch_ns.store(SteadyNowNs(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Timeline::Disable() { enabled_.store(false, std::memory_order_release); }

void Timeline::Clear() {
  TimelineState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  for (auto& buffer : state.buffers) {
    buffer->size.store(0, std::memory_order_release);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
}

int64_t Timeline::NowNs() {
  const int64_t epoch = State().epoch_ns.load(std::memory_order_relaxed);
  return epoch == 0 ? 0 : SteadyNowNs() - epoch;
}

void Timeline::RecordSpan(const char* name, Clock::time_point start,
                          Clock::time_point end, uint64_t trace_id,
                          uint64_t span_id, uint64_t parent_span_id,
                          int depth) {
  if (!IsEnabled()) return;
  TimelineEvent event;
  event.kind = TimelineEventKind::kSpan;
  event.name = name;
  event.start_ns = ToEpochNs(start);
  event.dur_ns = std::max<int64_t>(
      1, std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
             .count());
  event.trace_id = trace_id;
  event.span_id = span_id;
  event.parent_span_id = parent_span_id;
  event.depth = depth;
  LocalBuffer().Push(event);
}

void Timeline::RecordAsyncSpan(const char* name, Clock::time_point start,
                               Clock::time_point end, uint64_t trace_id,
                               uint64_t span_id, uint64_t parent_span_id) {
  if (!IsEnabled()) return;
  TimelineEvent event;
  event.kind = TimelineEventKind::kAsyncSpan;
  event.name = name;
  event.start_ns = ToEpochNs(start);
  event.dur_ns = std::max<int64_t>(
      1, std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
             .count());
  event.trace_id = trace_id;
  event.span_id = span_id;
  event.parent_span_id = parent_span_id;
  LocalBuffer().Push(event);
}

void Timeline::RecordCounter(const char* name, double value) {
  if (!IsEnabled()) return;
  TimelineEvent event;
  event.kind = TimelineEventKind::kCounter;
  event.name = name;
  event.start_ns = NowNs();
  event.value = value;
  LocalBuffer().Push(event);
}

void Timeline::SetCurrentThreadName(const std::string& name) {
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.name_mutex);
  buffer.name = name;
}

std::vector<TimelineEventView> Timeline::Snapshot() {
  TimelineState& state = State();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    buffers = state.buffers;
  }
  std::vector<TimelineEventView> out;
  for (const auto& buffer : buffers) {
    const size_t n = buffer->size.load(std::memory_order_acquire);
    std::string name;
    {
      std::lock_guard<std::mutex> lock(buffer->name_mutex);
      name = buffer->name;
    }
    for (size_t i = 0; i < n; ++i) {
      TimelineEventView view;
      view.tid = buffer->tid;
      view.thread_name = name;
      view.event = buffer->events[i];
      out.push_back(std::move(view));
    }
  }
  return out;
}

uint64_t Timeline::RecordedEvents() {
  TimelineState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  uint64_t total = 0;
  for (const auto& buffer : state.buffers) {
    total += buffer->size.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t Timeline::DroppedEvents() {
  TimelineState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  uint64_t total = 0;
  for (const auto& buffer : state.buffers) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

namespace {

/// One Chrome trace row ready for emission. Sync spans are split into
/// a B and an E row here so the output stream is valid by
/// construction: every recorded span contributes exactly one of each.
struct ChromeRow {
  int64_t ts_ns = 0;
  int tid = 0;
  /// Sort rank at equal timestamps: E(0) before B(1) so that
  /// back-to-back sibling spans close before the next one opens;
  /// counters and async rows (2) are unconstrained.
  int rank = 2;
  /// Secondary tie-break: E rows close deepest-first, B rows open
  /// shallowest-first.
  int depth_key = 0;
  std::string json;
};

std::string IdFields(uint64_t trace_id, uint64_t span_id,
                     uint64_t parent_span_id) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"args\":{\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
                ",\"parent_span_id\":%" PRIu64 "}",
                trace_id, span_id, parent_span_id);
  return buf;
}

std::string Row(const char* name, char ph, int64_t ts_ns, int tid,
                const std::string& extra) {
  std::string out;
  out += "{\"name\":\"";
  AppendJsonEscaped(out, name);
  char buf[128];
  // Chrome trace timestamps are microseconds; emit fractional us to
  // keep nanosecond resolution.
  std::snprintf(buf, sizeof(buf),
                "\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,\"tid\":%d", ph,
                static_cast<double>(ts_ns) / 1000.0, tid);
  out += buf;
  if (!extra.empty()) {
    out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

}  // namespace

std::string ChromeTraceJson(const std::vector<TimelineEventView>& events) {
  std::vector<ChromeRow> rows;
  rows.reserve(events.size() * 2 + 8);
  std::vector<std::pair<int, std::string>> thread_names;
  for (const TimelineEventView& view : events) {
    const TimelineEvent& e = view.event;
    if (!view.thread_name.empty()) {
      bool known = false;
      for (const auto& [tid, _] : thread_names) known |= tid == view.tid;
      if (!known) thread_names.emplace_back(view.tid, view.thread_name);
    }
    switch (e.kind) {
      case TimelineEventKind::kSpan: {
        ChromeRow begin;
        begin.ts_ns = e.start_ns;
        begin.tid = view.tid;
        begin.rank = 1;
        begin.depth_key = e.depth;  // open shallowest-first
        begin.json =
            Row(e.name, 'B', e.start_ns, view.tid,
                IdFields(e.trace_id, e.span_id, e.parent_span_id));
        ChromeRow end;
        end.ts_ns = e.start_ns + e.dur_ns;
        end.tid = view.tid;
        end.rank = 0;
        end.depth_key = -e.depth;  // close deepest-first
        end.json = Row(e.name, 'E', end.ts_ns, view.tid, "");
        rows.push_back(std::move(begin));
        rows.push_back(std::move(end));
        break;
      }
      case TimelineEventKind::kAsyncSpan: {
        char id_extra[256];
        std::snprintf(id_extra, sizeof(id_extra),
                      "\"cat\":\"queue\",\"id\":%" PRIu64
                      ",\"args\":{\"trace_id\":%" PRIu64
                      ",\"parent_span_id\":%" PRIu64 "}",
                      e.span_id, e.trace_id, e.parent_span_id);
        ChromeRow begin;
        begin.ts_ns = e.start_ns;
        begin.tid = view.tid;
        begin.json = Row(e.name, 'b', e.start_ns, view.tid, id_extra);
        char end_extra[64];
        std::snprintf(end_extra, sizeof(end_extra),
                      "\"cat\":\"queue\",\"id\":%" PRIu64, e.span_id);
        ChromeRow end;
        end.ts_ns = e.start_ns + e.dur_ns;
        end.tid = view.tid;
        end.json = Row(e.name, 'e', end.ts_ns, view.tid, end_extra);
        rows.push_back(std::move(begin));
        rows.push_back(std::move(end));
        break;
      }
      case TimelineEventKind::kCounter: {
        char extra[96];
        std::snprintf(extra, sizeof(extra), "\"args\":{\"value\":%.6g}",
                      e.value);
        ChromeRow row;
        row.ts_ns = e.start_ns;
        row.tid = view.tid;
        row.json = Row(e.name, 'C', e.start_ns, view.tid, extra);
        rows.push_back(std::move(row));
        break;
      }
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ChromeRow& a, const ChromeRow& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     if (a.rank != b.rank) return a.rank < b.rank;
                     return a.depth_key < b.depth_key;
                   });

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, name] : thread_names) {
    if (!first) out += ",\n";
    first = false;
    std::string row = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"tid\":%d,", tid);
    row += buf;
    row += "\"args\":{\"name\":\"";
    AppendJsonEscaped(row, name.c_str());
    row += "\"}}";
    out += row;
  }
  for (const ChromeRow& row : rows) {
    if (!first) out += ",\n";
    first = false;
    out += row.json;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Status WriteChromeTrace(const std::string& path) {
  const std::string json = ChromeTraceJson(Timeline::Snapshot());
  if (path == "-") {
    std::fwrite(json.data(), 1, json.size(), stdout);
    return Status::Ok();
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::Internal("cannot open trace output: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const int close_rc = std::fclose(file);
  if (written != json.size() || close_rc != 0) {
    return Status::Internal("short write to trace output: " + path);
  }
  return Status::Ok();
}

std::string TraceOutPathFromEnv() {
  const char* value = std::getenv("GEM_PROFILE");
  if (value == nullptr || value[0] == '\0' ||
      std::strcmp(value, "0") == 0) {
    return "";
  }
  if (std::strcmp(value, "1") == 0) return "trace.json";
  return value;
}

}  // namespace gem::obs
