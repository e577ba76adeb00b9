#ifndef GEM_OBS_TIMELINE_H_
#define GEM_OBS_TIMELINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "obs/trace_context.h"

namespace gem::obs {

/// Per-thread timeline profiler behind a process-wide switch
/// (`GEM_PROFILE` env var / `--trace_out` flags). Disabled (the
/// default) the record functions are one relaxed atomic load plus a
/// branch — cheap enough to leave in every hot path permanently.
/// Enabled, each thread appends fixed-size events to its own buffer,
/// sized at the thread's first recorded event: single-writer, no
/// locks, no allocation after that. A full buffer drops NEW events
/// and counts them (dropped_events) rather than overwriting old ones,
/// so every recorded span keeps its matched begin/end and the loss is
/// observable.
///
/// Readers (Snapshot / WriteChromeTrace) may run concurrently with
/// writers: each buffer publishes its size with a release store and
/// readers take an acquire prefix, so a snapshot sees a clean prefix
/// of every thread's history.

/// What one recorded event is.
enum class TimelineEventKind : uint8_t {
  /// Synchronous scoped span: properly nested on its thread (RAII).
  kSpan,
  /// Retrospective interval that may OVERLAP other spans on the
  /// recording thread (e.g. queue-wait measured from enqueue on one
  /// thread to dequeue on another). Exported as Chrome ASYNC b/e
  /// events keyed by span_id, which carry no nesting constraint.
  kAsyncSpan,
  /// Point event.
  kInstant,
  /// Counter sample (value series, e.g. RSS from the resource
  /// sampler); exported as a Chrome "C" event.
  kCounter,
};

struct TimelineEvent {
  TimelineEventKind kind = TimelineEventKind::kInstant;
  /// Static string (retained by pointer; string literals only).
  const char* name = nullptr;
  /// Nanoseconds since the timeline epoch (Enable time).
  int64_t start_ns = 0;
  /// Span kinds only; >= 1 (zero-length spans are clamped so a B is
  /// never sorted after its own E).
  int64_t dur_ns = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  /// Nesting depth at record time (kSpan), 0 otherwise.
  int32_t depth = 0;
  /// kCounter payload.
  double value = 0.0;
};

/// One event joined with its recording thread, as returned by
/// Snapshot().
struct TimelineEventView {
  /// Dense per-process thread ordinal (assigned at first record).
  int tid = 0;
  /// Thread name if SetCurrentThreadName ran on that thread.
  std::string thread_name;
  TimelineEvent event;
};

struct TimelineOptions {
  /// Ring capacity per recording thread; events beyond it are dropped
  /// (and counted), never overwritten.
  size_t events_per_thread = 1 << 15;
};

class Timeline {
 public:
  /// The only check on the disabled hot path.
  static bool IsEnabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Starts recording: resets the epoch to "now", clears every
  /// existing thread buffer, and applies `options` to buffers sized
  /// from here on, i.e. those of threads that have not recorded an
  /// event yet (existing buffers keep their capacity).
  static void Enable(TimelineOptions options = {});
  /// Stops recording. Buffers are retained for Snapshot/Write.
  static void Disable();
  /// Drops all recorded events and drop counters (buffers stay
  /// registered for their threads).
  static void Clear();

  /// Nanoseconds since the epoch (0 when never enabled).
  static int64_t NowNs();

  /// Records a closed span [start, end) attributed to `context`
  /// (span_id = the span's own id, parent via parent_span_id).
  static void RecordSpan(const char* name,
                         std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end,
                         uint64_t trace_id, uint64_t span_id,
                         uint64_t parent_span_id, int depth);
  /// As RecordSpan, but exported as an async (overlap-tolerant)
  /// interval — use for waits measured across threads (queue wait).
  static void RecordAsyncSpan(const char* name,
                              std::chrono::steady_clock::time_point start,
                              std::chrono::steady_clock::time_point end,
                              uint64_t trace_id, uint64_t span_id,
                              uint64_t parent_span_id);
  static void RecordInstant(const char* name);
  static void RecordCounter(const char* name, double value);

  /// Names the calling thread's track in the exported trace (e.g.
  /// "pool-worker-2"). Safe to call when disabled; allocates no
  /// event buffer.
  static void SetCurrentThreadName(const std::string& name);

  /// Point-in-time copy of every thread's recorded prefix, ordered by
  /// (tid, record order). Callable while recording continues.
  static std::vector<TimelineEventView> Snapshot();

  /// Total events recorded / dropped across all thread buffers.
  static uint64_t RecordedEvents();
  static uint64_t DroppedEvents();

 private:
  friend class TimelineTestPeer;
  static std::atomic<bool> enabled_;
};

/// Renders a Snapshot() (or the live buffers when `events` is empty
/// via the path overload) as Chrome trace-event JSON — the format
/// chrome://tracing and Perfetto load directly. Sync spans become
/// matched "B"/"E" pairs per thread track, async spans become "b"/"e"
/// pairs keyed by span id, counters become "C" events, and thread
/// names become "M" metadata.
std::string ChromeTraceJson(const std::vector<TimelineEventView>& events);

/// ChromeTraceJson(Timeline::Snapshot()) written to `path` ("-" =
/// stdout).
Status WriteChromeTrace(const std::string& path);

/// The `GEM_PROFILE` environment switch: unset/empty/"0" -> nullopt-
/// like empty string (profiling off); any other value is the trace
/// output path ("1" selects "trace.json"). Binaries consult it when
/// no --trace_out flag was given.
std::string TraceOutPathFromEnv();

}  // namespace gem::obs

#endif  // GEM_OBS_TIMELINE_H_
