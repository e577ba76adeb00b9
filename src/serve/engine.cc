#include "serve/engine.h"

#include <future>
#include <utility>

#include "base/check.h"
#include "fault/failpoint.h"
#include "math/kernels.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace gem::serve {
namespace {

struct EngineMetrics {
  obs::Gauge& queue_depth;
  obs::Counter& admitted;
  obs::Counter& rejected_full;
  obs::Counter& rejected_shutdown;
  obs::Counter& fence_not_found;
  obs::Counter& deadline_exceeded;
  obs::Counter& absorbed;
  obs::Histogram& queue_wait_seconds;
  obs::Histogram& infer_seconds;

  static EngineMetrics& Get() {
    static EngineMetrics metrics{
        obs::MetricsRegistry::Get().GetGauge("gem_serve_queue_depth"),
        obs::MetricsRegistry::Get().GetCounter(
            "gem_serve_requests_total", {{"outcome", "admitted"}}),
        obs::MetricsRegistry::Get().GetCounter(
            "gem_serve_requests_total", {{"outcome", "rejected_queue_full"}}),
        obs::MetricsRegistry::Get().GetCounter(
            "gem_serve_requests_total", {{"outcome", "rejected_shutdown"}}),
        obs::MetricsRegistry::Get().GetCounter(
            "gem_serve_responses_total", {{"result", "fence_not_found"}}),
        obs::MetricsRegistry::Get().GetCounter(
            "gem_serve_responses_total", {{"result", "deadline_exceeded"}}),
        obs::MetricsRegistry::Get().GetCounter("gem_serve_absorbed_total"),
        obs::MetricsRegistry::Get().GetHistogram(
            "gem_serve_queue_wait_seconds", obs::LatencyBuckets()),
        obs::MetricsRegistry::Get().GetHistogram("gem_serve_infer_seconds",
                                                 obs::LatencyBuckets()),
    };
    return metrics;
  }
};

}  // namespace

Status EngineOptions::Validate() const {
  const Status pool_status = ThreadPoolOptions{num_threads}.Validate();
  if (!pool_status.ok()) return pool_status;
  if (max_queue_depth < 1) {
    return Status::InvalidArgument("engine max_queue_depth must be >= 1");
  }
  if (default_deadline.count() < 0) {
    return Status::InvalidArgument("engine default_deadline must be >= 0");
  }
  return Status::Ok();
}

Engine::Engine(FenceRegistry* registry, EngineOptions options)
    : registry_(registry), options_(options) {
  GEM_CHECK(registry_ != nullptr);
  GEM_CHECK(options_.Validate().ok());
  EngineMetrics::Get();  // resolve metric handles off the hot path
  // Serving latency depends heavily on the dispatched kernel family;
  // record it where latency dashboards can join on it.
  obs::MetricsRegistry::Get()
      .GetGauge("gem_kernel_backend_active",
                {{"backend", math::kernels::BackendName(
                                 math::kernels::ActiveBackend())}})
      .Set(1.0);
  workers_.reserve(options_.num_threads);
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this, i] {
      obs::Timeline::SetCurrentThreadName("serve-worker-" +
                                          std::to_string(i + 1));
      WorkerLoop();
    });
  }
}

Engine::~Engine() { Shutdown(); }

Status Engine::Submit(ServeRequest request, Callback done) {
  EngineMetrics& metrics = EngineMetrics::Get();
  // Chaos schedules fire here to model admission failures the queue
  // bound alone cannot produce on demand (overload, shedding tiers).
  GEM_FAILPOINT("serve.engine.admit");
  if (request.deadline.count() < 0) {
    return Status::InvalidArgument("request deadline must be >= 0");
  }
  const std::chrono::milliseconds deadline =
      request.deadline.count() > 0 ? request.deadline
                                   : options_.default_deadline;
  const auto now = std::chrono::steady_clock::now();
  const auto deadline_at =
      deadline.count() > 0 ? now + deadline
                           : std::chrono::steady_clock::time_point::max();
  {
    std::lock_guard lock(mutex_);
    if (shutting_down_) {
      metrics.rejected_shutdown.Increment();
      return Status::FailedPrecondition("engine is shut down");
    }
    if (queue_.size() >= options_.max_queue_depth) {
      metrics.rejected_full.Increment();
      return Status::Unavailable("request queue is full (" +
                                 std::to_string(options_.max_queue_depth) +
                                 " pending)");
    }
    obs::TraceContext context;  // {0,0} when the profiler is off
    if (obs::Timeline::IsEnabled()) {
      // Inherit the submitter's trace (a traced caller span) or start
      // a fresh one per request; the span id stays 0 so the worker's
      // serve.request span becomes the request's root.
      context.trace_id = obs::CurrentTraceContext().trace_id;
      if (context.trace_id == 0) context.trace_id = obs::NewTraceId();
      context.span_id = obs::CurrentTraceContext().span_id;
    }
    queue_.push_back(Job{std::move(request), std::move(done), now,
                         deadline_at, context});
    metrics.queue_depth.Set(static_cast<double>(queue_.size()));
  }
  metrics.admitted.Increment();
  work_available_.notify_one();
  return Status::Ok();
}

ServeResponse Engine::InferBlocking(ServeRequest request) {
  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();
  const Status submitted = Submit(
      std::move(request),
      [&promise](ServeResponse response) {
        promise.set_value(std::move(response));
      });
  if (!submitted.ok()) {
    ServeResponse response;
    response.status = submitted;
    return response;
  }
  return future.get();
}

BatchServeResponse Engine::InferBatch(
    const std::string& fence_id, const std::vector<rf::ScanRecord>& records) {
  GEM_TRACE_SPAN("serve.infer_batch");
  EngineMetrics& metrics = EngineMetrics::Get();
  BatchServeResponse response;
  {
    std::lock_guard lock(mutex_);
    if (shutting_down_) {
      metrics.rejected_shutdown.Increment();
      response.status = Status::FailedPrecondition("engine is shut down");
      return response;
    }
  }

  StatusOr<std::shared_ptr<Fence>> resolved = registry_->Resolve(fence_id);
  if (!resolved.ok()) {
    if (resolved.code() == StatusCode::kNotFound) {
      metrics.fence_not_found.Increment();
    }
    response.status = resolved.status();
    return response;
  }
  std::shared_ptr<Fence> fence = std::move(resolved).value();

  const auto start = std::chrono::steady_clock::now();
  {
    // One fence-serialized section for the whole batch; the embedding
    // stage inside fans out on the model's own thread pool.
    std::unique_lock model_lock(fence->mutex, std::defer_lock);
    {
      GEM_TRACE_SPAN("serve.fence_wait");
      model_lock.lock();
    }
    // Const read API: the base model is never written; graph growth
    // and detector absorption land in the fence's overlay.
    response.results = fence->gem.InferBatch(records, fence->overlay);
  }
  metrics.infer_seconds.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  for (const core::InferenceResult& result : response.results) {
    if (result.model_updated) metrics.absorbed.Increment();
  }
  response.status = Status::Ok();
  response.fence_generation = fence->generation;
  return response;
}

void Engine::Shutdown() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
    to_join.swap(workers_);  // claimed by exactly one Shutdown caller
  }
  work_available_.notify_all();
  for (std::thread& worker : to_join) worker.join();
}

size_t Engine::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

void Engine::WorkerLoop() {
  EngineMetrics& metrics = EngineMetrics::Get();
  for (;;) {
    Job job;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down, queue drained
      job = std::move(queue_.front());
      queue_.pop_front();
      metrics.queue_depth.Set(static_cast<double>(queue_.size()));
    }
    const auto dequeued_at = std::chrono::steady_clock::now();
    metrics.queue_wait_seconds.Observe(
        std::chrono::duration<double>(dequeued_at - job.enqueued_at)
            .count());
    if (job.context.trace_id != 0) {
      obs::Timeline::RecordAsyncSpan("serve.queue_wait", job.enqueued_at,
                                     dequeued_at, job.context.trace_id,
                                     obs::NewSpanId(), job.context.span_id);
    }
    obs::TraceContextScope trace_scope(job.context);
    ServeResponse response = Process(job.request, job.deadline_at);
    if (job.done) job.done(std::move(response));
  }
}

ServeResponse Engine::Process(
    const ServeRequest& request,
    std::chrono::steady_clock::time_point deadline_at) {
  GEM_TRACE_SPAN("serve.request");
  EngineMetrics& metrics = EngineMetrics::Get();
  ServeResponse response;

  // Worker-side injection point: an error here answers the request
  // with a definite Status exactly like a real execution failure.
  GEM_FAILPOINT_ON("serve.engine.process", {
    response.status = failpoint_status;
    return response;
  });

  // Queue-side deadline check: the request may have expired while it
  // sat behind slower work.
  if (std::chrono::steady_clock::now() >= deadline_at) {
    metrics.deadline_exceeded.Increment();
    response.status =
        Status::DeadlineExceeded("request deadline passed in queue");
    return response;
  }

  std::shared_ptr<Fence> fence;
  {
    // Resolve pins the fence through the store; a miss cold-loads its
    // snapshot here (its own store.cold_load span nests under this
    // lookup).
    GEM_TRACE_SPAN("serve.lookup");
    StatusOr<std::shared_ptr<Fence>> resolved =
        registry_->Resolve(request.fence_id);
    if (!resolved.ok()) {
      if (resolved.code() == StatusCode::kNotFound) {
        metrics.fence_not_found.Increment();
      }
      response.status = resolved.status();
      return response;
    }
    fence = std::move(resolved).value();
  }

  const auto start = std::chrono::steady_clock::now();
  {
    // Fence-serialized section: Infer embeds (growing the graph),
    // detects, and — when confidently inside — absorbs the embedding
    // into the detector (Section V-B self-enhancement). All of that
    // mutation lands in the fence's overlay, never the (possibly
    // mmap-backed) base; the fence mutex is what keeps racing updates
    // to one tenant's overlay sound while other tenants proceed in
    // parallel.
    GEM_TRACE_SPAN("serve.infer");
    std::unique_lock model_lock(fence->mutex, std::defer_lock);
    {
      // Time spent BLOCKED on the tenant's serialization mutex, split
      // out from execution so traces show contention directly.
      GEM_TRACE_SPAN("serve.fence_wait");
      model_lock.lock();
    }
    // Fence-side deadline check: waiting on a busy tenant's mutex can
    // outlive the deadline just like queueing does.
    if (std::chrono::steady_clock::now() >= deadline_at) {
      metrics.deadline_exceeded.Increment();
      response.status = Status::DeadlineExceeded(
          "request deadline passed waiting for fence '" + request.fence_id +
          "'");
      return response;
    }
    response.result = fence->gem.Infer(request.record, fence->overlay);
  }
  metrics.infer_seconds.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  if (response.result.model_updated) metrics.absorbed.Increment();
  response.status = Status::Ok();
  response.fence_generation = fence->generation;
  return response;
}

}  // namespace gem::serve
