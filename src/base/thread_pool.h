#ifndef GEM_BASE_THREAD_POOL_H_
#define GEM_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "base/status.h"

namespace gem {

/// ThreadPool sizing knobs (validated, not CHECKed, so callers can
/// surface bad --threads values as kInvalidArgument instead of
/// crashing).
struct ThreadPoolOptions {
  /// Fixed worker count. 1 means "no workers": every ParallelFor runs
  /// inline on the calling thread, so a single code path covers both
  /// the serial and the parallel build of an algorithm.
  int num_threads = 1;

  /// kInvalidArgument unless 1 <= num_threads <= kMaxThreads.
  Status Validate() const;

  static constexpr int kMaxThreads = 4096;
};

/// Fixed-size worker pool over an unbounded FIFO work queue, shared by
/// BiSAGE training, batched inference, and dataset generation (the
/// hot paths own one pool and reuse it across epochs / batches instead
/// of spawning per-call threads).
///
/// Threading contract:
///  - ParallelFor may be called concurrently from any thread (each
///    call tracks its own completion latch).
///  - A chunk body must not call ParallelFor on the SAME pool (a
///    worker blocking on its own pool's latch can deadlock the queue).
///  - A chunk may wait on its sibling chunks (e.g. at a barrier they
///    all reach) only when num_chunks <= num_threads and nothing else
///    runs on the pool: then every chunk has a thread of its own. A
///    chunk queued behind other work, or run inline after its
///    siblings, would deadlock them. BiSAGE training's per-epoch
///    region relies on this on the model's private pool.
///  - Destruction (or Shutdown) drains already-queued chunks, then
///    joins the workers; a ParallelFor after Shutdown runs inline.
class ThreadPool {
 public:
  /// The options must be valid (GEM_CHECKed); callers that take a
  /// user-supplied size Validate() it first.
  explicit ThreadPool(ThreadPoolOptions options);
  explicit ThreadPool(int num_threads)
      : ThreadPool(ThreadPoolOptions{num_threads}) {}
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Stops intake, drains the queue, joins the workers. Idempotent.
  void Shutdown();

  int num_threads() const { return options_.num_threads; }

  /// Splits [0, n) into `chunks()` deterministic contiguous ranges
  /// (sizes differ by at most one, fixed by (n, num_chunks) alone),
  /// runs body(chunk_index, begin, end) for each, and blocks until
  /// every chunk finished. Chunk 0 runs on the calling thread.
  ///
  /// Chunk-to-thread placement is unspecified, so `body` must make the
  /// result a pure function of chunk_index (e.g. seed a per-chunk RNG
  /// and write to a chunk-indexed slot) for the output to be
  /// deterministic at a fixed chunk count.
  void ParallelFor(long n,
                   const std::function<void(int chunk, long begin, long end)>&
                       body);

  /// As above with an explicit chunk count (clamped to [1, n]); used
  /// when the work wants other than one chunk per thread (BiSAGE
  /// training hands its four walk chunks, and each epoch's waves, to at
  /// most four executors, one chunk each).
  ///
  /// Chunks 1..num_chunks-1 enter the queue under one lock acquisition
  /// with one wake-up. When the timeline profiler is enabled
  /// (obs::Timeline), the caller's TraceContext rides along with each
  /// queued chunk: the worker records the enqueue->dequeue gap as a
  /// "pool.queue_wait" interval and runs the chunk under a "pool.task"
  /// span parented to the calling span, so traces stay connected
  /// across the thread hop. Chunks run inline (a 1-thread pool, a
  /// single chunk, or after Shutdown) keep the caller's context and
  /// record no queue wait.
  void ParallelForChunked(long n, long num_chunks,
                          const std::function<void(int chunk, long begin,
                                                   long end)>& body);

 private:
  void WorkerLoop();

  /// Wraps fn with the queue_wait/task timeline instrumentation when
  /// the profiler is enabled; returns fn unchanged otherwise. Captures
  /// the calling thread's TraceContext, so call it on the caller.
  static std::function<void()> WrapForTimeline(std::function<void()> fn);

  const ThreadPoolOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// The half-open sub-range of [0, n) covered by `chunk` under the
/// deterministic static chunking ParallelFor uses (sizes differ by at
/// most one; earlier chunks get the extra element).
std::pair<long, long> StaticChunkRange(long n, long num_chunks, long chunk);

}  // namespace gem

#endif  // GEM_BASE_THREAD_POOL_H_
