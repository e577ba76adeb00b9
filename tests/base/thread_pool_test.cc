#include "base/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <numeric>
#include <thread>
#include <vector>

namespace gem {
namespace {

TEST(StaticChunkRangeTest, PartitionsWithoutGapsOrOverlap) {
  for (long n : {0L, 1L, 7L, 100L}) {
    for (long chunks : {1L, 3L, 8L}) {
      long covered = 0;
      long previous_end = 0;
      long max_size = 0;
      long min_size = n + 1;
      for (long c = 0; c < chunks; ++c) {
        const auto [begin, end] = StaticChunkRange(n, chunks, c);
        EXPECT_EQ(begin, previous_end) << "n=" << n << " chunks=" << chunks;
        EXPECT_LE(begin, end);
        covered += end - begin;
        previous_end = end;
        max_size = std::max(max_size, end - begin);
        min_size = std::min(min_size, end - begin);
      }
      EXPECT_EQ(previous_end, n);
      EXPECT_EQ(covered, n);
      EXPECT_LE(max_size - min_size, 1) << "n=" << n << " chunks=" << chunks;
    }
  }
}

TEST(StaticChunkRangeTest, EarlierChunksGetTheRemainder) {
  // 10 over 4 chunks: 3,3,2,2.
  EXPECT_EQ(StaticChunkRange(10, 4, 0), (std::pair<long, long>{0, 3}));
  EXPECT_EQ(StaticChunkRange(10, 4, 1), (std::pair<long, long>{3, 6}));
  EXPECT_EQ(StaticChunkRange(10, 4, 2), (std::pair<long, long>{6, 8}));
  EXPECT_EQ(StaticChunkRange(10, 4, 3), (std::pair<long, long>{8, 10}));
}

TEST(ThreadPoolOptionsTest, Validate) {
  EXPECT_TRUE(ThreadPoolOptions{1}.Validate().ok());
  EXPECT_TRUE(ThreadPoolOptions{8}.Validate().ok());
  EXPECT_TRUE(ThreadPoolOptions{ThreadPoolOptions::kMaxThreads}.Validate().ok());
  EXPECT_EQ(ThreadPoolOptions{0}.Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ThreadPoolOptions{-3}.Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ThreadPoolOptions{ThreadPoolOptions::kMaxThreads + 1}
                .Validate()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  int chunks_seen = 0;
  pool.ParallelFor(100, [&](int chunk, long begin, long end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(chunk, 0);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 100);
    ++chunks_seen;
  });
  EXPECT_EQ(chunks_seen, 1);

  // An explicit chunk count still runs every chunk on the caller, in
  // index order.
  std::vector<int> order;
  pool.ParallelForChunked(8, 8, [&](int chunk, long begin, long end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, chunk);
    EXPECT_EQ(end, chunk + 1);
    order.push_back(chunk);
  });
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ParallelForCoversEveryElement) {
  ThreadPool pool(4);
  const long n = 10000;
  std::vector<long> out(n, 0);
  pool.ParallelFor(n, [&](int /*chunk*/, long begin, long end) {
    for (long i = begin; i < end; ++i) out[i] = 2 * i + 1;
  });
  for (long i = 0; i < n; ++i) ASSERT_EQ(out[i], 2 * i + 1) << i;
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsANoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](int, long, long) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ParallelForChunkedHonorsChunkCount) {
  ThreadPool pool(2);
  const long n = 12;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelForChunked(n, n, [&](int chunk, long begin, long end) {
    // One element per chunk, chunk index == element index.
    EXPECT_EQ(begin, chunk);
    EXPECT_EQ(end, chunk + 1);
    hits[begin].fetch_add(1);
  });
  for (long i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsAreIndependent) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr long kN = 2000;
  std::vector<long> sums(kCallers, 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&pool, &sums, t] {
      std::vector<long> partial(64, 0);
      pool.ParallelForChunked(kN, 8, [&](int chunk, long begin, long end) {
        for (long i = begin; i < end; ++i) partial[chunk] += i + t;
      });
      sums[t] = std::accumulate(partial.begin(), partial.end(), 0L);
    });
  }
  for (std::thread& caller : callers) caller.join();
  const long base = kN * (kN - 1) / 2;
  for (int t = 0; t < kCallers; ++t) EXPECT_EQ(sums[t], base + t * kN);
}

TEST(ThreadPoolTest, ShutdownDrainsTheQueuedChunks) {
  // Chunk 0 always runs on the caller, after chunks 1..63 are queued:
  // a Shutdown from inside it must run every queued chunk before the
  // workers exit, or the wave's latch would never open.
  std::atomic<int> completed{0};
  int completed_at_shutdown = -1;
  {
    ThreadPool pool(2);
    pool.ParallelForChunked(64, 64, [&](int chunk, long, long) {
      if (chunk == 0) {
        pool.Shutdown();
        completed_at_shutdown = completed.load();
        pool.Shutdown();  // idempotent
      } else {
        completed.fetch_add(1);
      }
    });
  }
  EXPECT_EQ(completed_at_shutdown, 63);
  EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPoolTest, ParallelForAfterShutdownRunsInline) {
  ThreadPool pool(2);
  pool.Shutdown();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  pool.ParallelForChunked(4, 4, [&](int chunk, long, long) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(chunk);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// The pool contract's sibling-wait case, which BiSAGE training's
// per-epoch region relies on: with num_chunks <= num_threads and
// nothing else on the pool, every chunk has a thread of its own, so the
// chunks may meet at a barrier round after round. Each writes its
// plain-int slot before it arrives, and after the wait every slot holds
// the round; a second barrier keeps a fast chunk from writing the next
// round before every chunk has checked this one. Nothing sleeps, and
// under TSan a missing happens-before on the slots is a reported race.
TEST(ThreadPoolTest, ChunksWithAThreadEachMayWaitOnEachOther) {
  constexpr int kChunks = 4;
  constexpr int kRounds = 200;
  ThreadPool pool(kChunks);
  std::barrier written(kChunks);
  std::barrier checked(kChunks);
  std::vector<int> slot(kChunks, -1);
  std::atomic<int> mismatches{0};
  pool.ParallelForChunked(kChunks, kChunks, [&](int chunk, long, long) {
    for (int round = 0; round < kRounds; ++round) {
      slot[chunk] = round;
      written.arrive_and_wait();
      for (const int value : slot) {
        if (value != round) mismatches.fetch_add(1);
      }
      checked.arrive_and_wait();
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace gem
