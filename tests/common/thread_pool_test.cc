#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace cdpd {
namespace {

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvironment) {
  ASSERT_EQ(setenv("CDPD_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);
  // Unparsable and sub-1 values fall back sanely.
  ASSERT_EQ(setenv("CDPD_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
  ASSERT_EQ(setenv("CDPD_THREADS", "junk", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
  ASSERT_EQ(unsetenv("CDPD_THREADS"), 0);
  const int hardware = ThreadPool::DefaultThreadCount();
  EXPECT_GE(hardware, 1);
  // A count past int is ignored like a non-positive one; it used to
  // wrap (2^32 + 1 read as 1).
  ASSERT_EQ(setenv("CDPD_THREADS", "4294967297", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), hardware);
  ASSERT_EQ(unsetenv("CDPD_THREADS"), 0);
}

TEST(ThreadPoolTest, SubmitRunsTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2);
  std::atomic<int> ran{0};
  std::atomic<bool> in_worker{false};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&] {
      if (ThreadPool::InWorkerThread()) in_worker.store(true);
      ran.fetch_add(1);
    });
  }
  // Submit gives no completion handle by design; poll with a generous
  // deadline (the pool destructor would also drain the queue).
  for (int spin = 0; spin < 5'000 && ran.load() < 16; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), 16);
  EXPECT_TRUE(in_worker.load());
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(&pool, 0, kCount,
              [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, HandlesEmptyAndSingletonRanges) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  ParallelFor(&pool, 5, 5, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  ParallelFor(&pool, 7, 8, [&](size_t i) {
    EXPECT_EQ(i, 7u);
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  std::vector<int> hits(100, 0);
  ParallelFor(nullptr, 0, hits.size(), [&](size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, PropagatesExceptionsAfterCompletion) {
  ThreadPool pool(4);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  EXPECT_THROW(
      ParallelFor(&pool, 0, kCount,
                  [&](size_t i) {
                    hits[i].fetch_add(1);
                    if (i == 321) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The throw aborts the rest of its own chunk, but no index runs
  // twice and the other chunks complete (most of the range is hit).
  size_t total = 0;
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_LE(hits[i].load(), 1);
    total += static_cast<size_t>(hits[i].load());
  }
  EXPECT_EQ(hits[321].load(), 1);
  EXPECT_GE(total, kCount / 2);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadPool pool(2);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ParallelFor(&pool, 0, kOuter, [&](size_t outer) {
    // From inside a worker this must fall back to the inline loop; a
    // re-entrant fan-out on a 2-thread pool would deadlock.
    ParallelFor(&pool, 0, kInner, [&](size_t inner) {
      hits[outer * kInner + inner].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelForTest, ConcurrentParallelForsShareOnePool) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  callers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      ParallelFor(&pool, 0, 500, [&](size_t) { total.fetch_add(1); });
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), 4 * 500);
}

}  // namespace
}  // namespace cdpd
