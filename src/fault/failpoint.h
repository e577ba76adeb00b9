#ifndef GEM_FAULT_FAILPOINT_H_
#define GEM_FAULT_FAILPOINT_H_

#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

/// gem::fault — deterministic failpoint injection.
///
/// A failpoint is a named hook (`GEM_FAILPOINT("store.mmap.open")`)
/// compiled into a fallible code path. In a normal build the macros
/// expand to nothing — release binaries carry no failpoint branches.
/// When the tree is configured with -DGEM_ENABLE_FAILPOINTS=ON (the CI
/// test builds), each hook consults a process-wide registry: a point
/// whose policy fires optionally sleeps (latency injection) and then
/// yields an error Status that the enclosing function returns, exactly
/// as if the real operation had failed. Chaos tests use this to
/// provoke the failure paths production will eventually hit — torn
/// snapshot reads, overloaded queues, slow workers, corrupt CSV rows —
/// on a deterministic, seeded schedule.
///
/// Point naming scheme: `<layer>.<component>.<operation>`, e.g.
/// `store.mmap.open`, `serve.engine.admit`, `base.thread_pool.task`,
/// `rf.record_io.row` (see DESIGN.md §9 for the full inventory).
///
/// Policy grammar (Configure):
///
///   spec    := entry { ';' entry }
///   entry   := point '=' policy
///   policy  := 'off' | trigger { '/' arg }
///   trigger := 'once' | 'always' | 'every=' N | 'prob=' P [ '@' SEED ]
///   arg     := code | 'delay=' MS
///   code    := 'ok' | 'invalid_argument' | 'not_found'
///            | 'failed_precondition' | 'out_of_range' | 'internal'
///            | 'unavailable' | 'data_loss' | 'deadline_exceeded'
///
/// The default payload is `internal` with no delay; `ok` makes a point
/// inject latency only. `every=N` fires on the Nth, 2Nth, ... hit;
/// `prob=P@SEED` flips a deterministic seeded coin per hit, so a chaos
/// schedule replays bit-identically for a fixed seed. Examples:
///
///   store.mmap.open=once/unavailable
///   serve.engine.process=prob=0.05@42/unavailable/delay=2
///   base.thread_pool.task=every=100/delay=5/ok

namespace gem::fault {

/// True when the library was built with GEM_ENABLE_FAILPOINTS. The
/// runtime API below still exists in a release build, but Configure
/// refuses (kFailedPrecondition) so a --failpoints flag cannot
/// silently do nothing.
bool CompiledIn();

/// Parses `spec` (grammar above) and installs the policies, replacing
/// any previous policy for the named points. kInvalidArgument pinpoints
/// the first malformed entry; kFailedPrecondition when failpoints are
/// compiled out.
Status Configure(const std::string& spec);

/// Every point back to off; hit/trigger counters cleared.
void Reset();

/// Evaluates a point: returns Ok when the point is unconfigured or its
/// policy does not fire; otherwise sleeps the configured delay and
/// returns the configured payload (Ok for delay-only points). Called
/// via the GEM_FAILPOINT* macros — instrumented code should not call
/// this directly, or the site survives in release builds.
Status Evaluate(std::string_view point);

/// Times a configured point was evaluated / fired (0 for unknown
/// points). Test-only introspection.
uint64_t HitCount(const std::string& point);
uint64_t TriggerCount(const std::string& point);

/// Sorted names of the currently configured (non-off) points.
std::vector<std::string> ConfiguredPoints();

}  // namespace gem::fault

#if defined(GEM_ENABLE_FAILPOINTS) && GEM_ENABLE_FAILPOINTS

/// Evaluates the point and, when it fires, runs `body` with the
/// injected error bound to `failpoint_status`. `body` decides how the
/// failure surfaces (assign it to a response, return it, ...).
#define GEM_FAILPOINT_ON(point, body)                              \
  if (const ::gem::Status failpoint_status =                       \
          ::gem::fault::Evaluate(point);                           \
      !failpoint_status.ok())                                      \
  body

/// The common case: return the injected Status from the enclosing
/// function (which must return Status or StatusOr<T>).
#define GEM_FAILPOINT(point) \
  GEM_FAILPOINT_ON(point, { return failpoint_status; })

/// Evaluate for side effects only (latency injection); any error
/// payload is ignored. For sites that cannot fail, like the thread
/// pool's task dispatch.
#define GEM_FAILPOINT_EVAL(point)                \
  do {                                           \
    (void)::gem::fault::Evaluate(point);         \
  } while (0)

#else

#define GEM_FAILPOINT_ON(point, body)
#define GEM_FAILPOINT(point) \
  do {                       \
  } while (0)
#define GEM_FAILPOINT_EVAL(point) \
  do {                            \
  } while (0)

#endif  // GEM_ENABLE_FAILPOINTS

#endif  // GEM_FAULT_FAILPOINT_H_
