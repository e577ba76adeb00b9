#ifndef GEM_OBS_TRACE_CONTEXT_H_
#define GEM_OBS_TRACE_CONTEXT_H_

#include <atomic>
#include <cstdint>

namespace gem::obs {

/// Request/operation-scoped trace identity, propagated EXPLICITLY
/// across thread hops (gem::ThreadPool's queued chunks, the serving
/// engine's request queue): the submitter captures its context, the
/// worker installs it before running the task, so child spans on the
/// worker attach to the right parent even though they run on a
/// different thread.
///
/// Ids are process-local (a monotonically increasing 64-bit counter),
/// 0 means "none". trace_id groups every span of one operation (one
/// serve request, one Train call); span_id names the innermost live
/// span and becomes the parent_span_id of any span opened under it.
///
/// This header is intentionally dependency-free (inline thread_locals
/// only) so low-level code (base/thread_pool) can propagate context
/// without linking the obs exporters.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool active() const { return trace_id != 0 || span_id != 0; }
};

namespace internal {
/// Process-wide id source; 0 is reserved for "none".
inline std::atomic<uint64_t> g_next_trace_scoped_id{1};
inline thread_local TraceContext t_trace_context;
}  // namespace internal

/// Fresh process-unique id (shared counter for trace and span ids;
/// uniqueness, not density, is the contract).
inline uint64_t NewTraceId() {
  return internal::g_next_trace_scoped_id.fetch_add(
      1, std::memory_order_relaxed);
}
inline uint64_t NewSpanId() { return NewTraceId(); }

/// The calling thread's current context ({0, 0} when no span/request
/// is live here).
inline TraceContext CurrentTraceContext() {
  return internal::t_trace_context;
}

inline void SetCurrentTraceContext(TraceContext context) {
  internal::t_trace_context = context;
}

/// RAII install/restore of the thread's context around a task that
/// runs on behalf of another thread's span.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext context)
      : saved_(internal::t_trace_context) {
    internal::t_trace_context = context;
  }
  ~TraceContextScope() { internal::t_trace_context = saved_; }

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace gem::obs

#endif  // GEM_OBS_TRACE_CONTEXT_H_
