#ifndef GEM_SERVE_ENGINE_H_
#define GEM_SERVE_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "base/thread_pool.h"
#include "core/geofence.h"
#include "obs/trace_context.h"
#include "rf/types.h"
#include "serve/fence_registry.h"

namespace gem::serve {

struct EngineOptions {
  /// Fixed worker-pool size.
  int num_threads = 4;
  /// Bounded request queue; a Submit against a full queue is rejected
  /// immediately with kUnavailable (backpressure — the caller sheds or
  /// retries, the server never buffers unboundedly).
  size_t max_queue_depth = 256;
  /// Default per-request deadline, measured from Submit; zero means no
  /// deadline. A request whose deadline passes while it queues, or
  /// while it waits on its fence's serialization mutex, is answered
  /// kDeadlineExceeded without running the model (the caller already
  /// gave up — spending fence time on it only delays live requests).
  /// ServeRequest::deadline overrides per request.
  std::chrono::milliseconds default_deadline{0};

  /// kInvalidArgument unless 1 <= num_threads <= the thread-pool
  /// maximum, max_queue_depth >= 1 and default_deadline >= 0.
  Status Validate() const;
};

/// One in-out query against a loaded fence.
struct ServeRequest {
  std::string fence_id;
  rf::ScanRecord record;
  /// Per-request deadline measured from Submit; zero falls back to
  /// EngineOptions::default_deadline (whose zero means unlimited).
  std::chrono::milliseconds deadline{0};
};

struct ServeResponse {
  /// kOk with `result` filled, kNotFound (fence neither loaded nor in
  /// the attached store), kDeadlineExceeded (deadline passed before
  /// the model ran), kUnavailable (shut down while queued, or a
  /// transient store cold-load failure), kDataLoss (corrupt snapshot
  /// behind a store-resolved fence), or, from InferBlocking,
  /// kFailedPrecondition (the engine was already shut down).
  Status status;
  core::InferenceResult result;
  /// Registry generation of the model that served the request (0 when
  /// status is not OK) — lets callers observe live reloads.
  uint64_t fence_generation = 0;
};

/// Response of a batched query: `results[i]` answers `records[i]`.
struct BatchServeResponse {
  Status status;
  std::vector<core::InferenceResult> results;
  uint64_t fence_generation = 0;
};

/// Multi-tenant serving engine: a fixed thread pool draining a bounded
/// request queue against a FenceRegistry.
///
/// Threading model (see DESIGN.md "Serving"):
///  - Registry lookups are sharded-shared-lock reads — concurrent.
///  - Per fence, model access is serialized under Fence::mutex, because
///    Gem::Infer both grows the graph and (self-enhancement) updates
///    the detector. Requests for DIFFERENT fences run fully in
///    parallel across the pool.
///  - Backpressure triggers at Submit time when the queue is full.
/// Fully instrumented via gem::obs: queue-depth gauge, admitted /
/// rejected / absorbed counters, queue-wait and per-stage latency
/// histograms.
class Engine {
 public:
  using Callback = std::function<void(ServeResponse)>;

  /// The options must be valid (GEM_CHECKed); use Create() to surface
  /// user-supplied sizes softly.
  explicit Engine(FenceRegistry* registry, EngineOptions options = {});
  /// Drains the queue and joins the workers.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Validates the options and builds the engine (kInvalidArgument on
  /// a bad --threads / queue-depth value instead of crashing).
  static StatusOr<std::unique_ptr<Engine>> Create(FenceRegistry* registry,
                                                  EngineOptions options);

  /// Enqueues the request; `done` runs on a worker thread. Returns
  /// kUnavailable when the queue is full and kFailedPrecondition after
  /// Shutdown; `done` is NOT invoked when Submit fails.
  Status Submit(ServeRequest request, Callback done);

  /// Submit + block for the response (CLI / test convenience).
  ServeResponse InferBlocking(ServeRequest request);

  /// Batched inference against one fence, run synchronously on the
  /// calling thread (it does not pass through the request queue). The
  /// fence is locked once for the whole batch — one tenant's batch is
  /// a single serialized unit, exactly like a run of queued requests —
  /// and the model parallelizes the embedding stage internally on its
  /// own pool (see Gem::InferBatch). kNotFound when the fence is not
  /// loaded, kFailedPrecondition after Shutdown.
  BatchServeResponse InferBatch(const std::string& fence_id,
                                const std::vector<rf::ScanRecord>& records);

  /// Stops intake, drains already-admitted requests, joins workers.
  /// Idempotent.
  void Shutdown();

  size_t queue_depth() const;
  const EngineOptions& options() const { return options_; }

 private:
  struct Job {
    ServeRequest request;
    Callback done;
    std::chrono::steady_clock::time_point enqueued_at;
    /// Absolute deadline (time_point::max() when none applies).
    std::chrono::steady_clock::time_point deadline_at;
    /// Trace identity minted at Submit when the timeline profiler is
    /// on ({0,0} otherwise): the worker re-installs it before Process
    /// so the request's spans attach to the submitter's trace across
    /// the queue hop, and the enqueue->dequeue gap becomes a
    /// "serve.queue_wait" interval under the same trace.
    obs::TraceContext context;
  };

  void WorkerLoop();
  ServeResponse Process(const ServeRequest& request,
                        std::chrono::steady_clock::time_point deadline_at);

  FenceRegistry* const registry_;
  const EngineOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<Job> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace gem::serve

#endif  // GEM_SERVE_ENGINE_H_
