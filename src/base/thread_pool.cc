#include "base/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "base/check.h"
#include "fault/failpoint.h"
#include "obs/timeline.h"
#include "obs/trace_context.h"

namespace gem {
namespace {

/// Completion latch of one ParallelForChunked call: armed with the
/// number of queued chunks, counted down once by each, waited on by the
/// caller.
class CountLatch {
 public:
  explicit CountLatch(long count) : remaining_(count) {}

  void CountDown() {
    std::lock_guard lock(mutex_);
    if (--remaining_ <= 0) done_.notify_all();
  }

  void Wait() {
    std::unique_lock lock(mutex_);
    done_.wait(lock, [this] { return remaining_ <= 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_;
  long remaining_;
};

}  // namespace

Status ThreadPoolOptions::Validate() const {
  if (num_threads < 1) {
    return Status::InvalidArgument("thread pool needs num_threads >= 1, got " +
                                   std::to_string(num_threads));
  }
  if (num_threads > kMaxThreads) {
    return Status::InvalidArgument(
        "thread pool num_threads " + std::to_string(num_threads) +
        " exceeds the maximum of " + std::to_string(kMaxThreads));
  }
  return Status::Ok();
}

std::pair<long, long> StaticChunkRange(long n, long num_chunks, long chunk) {
  GEM_DCHECK(n >= 0 && num_chunks >= 1 && chunk >= 0 && chunk < num_chunks);
  const long base = n / num_chunks;
  const long extra = n % num_chunks;
  const long begin = chunk * base + std::min(chunk, extra);
  const long size = base + (chunk < extra ? 1 : 0);
  return {begin, begin + size};
}

ThreadPool::ThreadPool(ThreadPoolOptions options) : options_(options) {
  GEM_CHECK(options_.Validate().ok());
  // A 1-thread pool runs everything inline on the caller: no workers,
  // no synchronization, bit-for-bit the serial code path.
  const int workers = options_.num_threads - 1;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] {
      obs::Timeline::SetCurrentThreadName("pool-worker-" +
                                          std::to_string(i + 1));
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

std::function<void()> ThreadPool::WrapForTimeline(std::function<void()> fn) {
  if (!obs::Timeline::IsEnabled()) return fn;
  // Carry the caller's trace context across the queue hop and account
  // the enqueue->dequeue gap as an async "pool.queue_wait" interval
  // parented to the calling span. The task body runs under a
  // "pool.task" span so worker-side child spans (gradient shards etc.)
  // attach to the right request/operation.
  const obs::TraceContext submitter = obs::CurrentTraceContext();
  const auto enqueued_at = std::chrono::steady_clock::now();
  return [fn = std::move(fn), submitter, enqueued_at] {
    const auto dequeued_at = std::chrono::steady_clock::now();
    const uint64_t trace_id =
        submitter.trace_id != 0 ? submitter.trace_id : obs::NewTraceId();
    obs::Timeline::RecordAsyncSpan("pool.queue_wait", enqueued_at, dequeued_at,
                                   trace_id, obs::NewSpanId(),
                                   submitter.span_id);
    const obs::TraceContext task_context{trace_id, obs::NewSpanId()};
    {
      obs::TraceContextScope scope(task_context);
      fn();
    }
    obs::Timeline::RecordSpan("pool.task", dequeued_at,
                              std::chrono::steady_clock::now(), trace_id,
                              task_context.span_id, submitter.span_id,
                              /*depth=*/0);
  };
}

void ThreadPool::Shutdown() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
    to_join.swap(workers_);  // claimed by exactly one Shutdown caller
  }
  work_available_.notify_all();
  for (std::thread& worker : to_join) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down, queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Chaos schedules inject latency here to model slow / preempted
    // workers; dispatch itself cannot fail, so any error payload is
    // ignored and the task always runs.
    GEM_FAILPOINT_EVAL("base.thread_pool.task");
    task();
  }
}

void ThreadPool::ParallelFor(
    long n, const std::function<void(int chunk, long begin, long end)>& body) {
  ParallelForChunked(n, options_.num_threads, body);
}

void ThreadPool::ParallelForChunked(
    long n, long num_chunks,
    const std::function<void(int chunk, long begin, long end)>& body) {
  if (n <= 0) return;
  num_chunks = std::clamp(num_chunks, 1L, n);
  const auto run_chunk = [&body, n, num_chunks](long c) {
    const auto [begin, end] = StaticChunkRange(n, num_chunks, c);
    body(static_cast<int>(c), begin, end);
  };
  // Per-call completion latch, so concurrent ParallelFor calls on one
  // pool never observe each other's chunks. Stack allocation is safe:
  // Wait() returns only after every queued chunk ran CountDown(), and
  // Shutdown drains the queue before the workers exit.
  CountLatch latch(num_chunks - 1);
  bool queued = false;
  if (num_chunks > 1) {
    std::lock_guard lock(mutex_);
    if (!shutting_down_ && !workers_.empty()) {
      for (long c = 1; c < num_chunks; ++c) {
        queue_.push_back(WrapForTimeline([&run_chunk, &latch, c] {
          run_chunk(c);
          latch.CountDown();
        }));
      }
      if (num_chunks > 2) {
        work_available_.notify_all();
      } else {
        work_available_.notify_one();
      }
      queued = true;
    }
  }
  if (!queued) {
    // A single chunk, no workers (1-thread pool) or shutting down: the
    // same chunk decomposition, executed in index order on the caller,
    // so body still sees the exact (chunk, begin, end) triples it would
    // see on a larger pool.
    for (long c = 0; c < num_chunks; ++c) run_chunk(c);
    return;
  }
  run_chunk(0);
  latch.Wait();
}

}  // namespace gem
