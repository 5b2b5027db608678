// Solves that share one borrowed worker pool (SolveOptions::pool), the
// way AdvisorService runs every RECOMMEND. The contract under test: a
// pooled solve returns exactly what an unpooled one does, and many
// threads solving concurrently through one pool each get the solo
// schedule, cost and counters — no call's stats leak into another's.
// Runs under TSan in CI (the preset filters match SharedPoolSolve).

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/solver.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

SolveOptions KAwareOptions() {
  SolveOptions options;
  options.method = OptimizerMethod::kOptimal;
  options.k = 2;
  return options;
}

TEST(SharedPoolSolveTest, PooledSolveMatchesUnpooled) {
  auto fixture = MakeRandomProblem(31, /*num_segments=*/6, /*block_size=*/10);
  SolveOptions options = KAwareOptions();
  options.num_threads = 1;
  const SolveResult serial = Solve(fixture->problem, options).value();

  ThreadPool pool(2);
  options.pool = &pool;
  const SolveResult pooled = Solve(fixture->problem, options).value();
  EXPECT_EQ(pooled.schedule.configs, serial.schedule.configs);
  EXPECT_EQ(pooled.schedule.total_cost, serial.schedule.total_cost);
  EXPECT_EQ(pooled.stats.costings, serial.stats.costings);
  EXPECT_EQ(pooled.stats.relaxations, serial.stats.relaxations);
  // The borrowed pool wins over num_threads.
  EXPECT_EQ(serial.stats.threads_used, 1);
  EXPECT_EQ(pooled.stats.threads_used, 2);
}

TEST(SharedPoolSolveTest, ConcurrentSolvesMatchSoloAndKeepStatsDisjoint) {
  // The solo reference: same problem, fresh everything.
  auto reference_fixture = MakeRandomProblem(/*seed=*/21, /*num_segments=*/4,
                                             /*block_size=*/10);
  const SolveResult reference =
      Solve(reference_fixture->problem, KAwareOptions()).value();
  ASSERT_GT(reference.stats.costings, 0);
  ASSERT_GT(reference.stats.relaxations, 0);

  ThreadPool pool(2);
  SolveOptions options = KAwareOptions();
  options.pool = &pool;

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::vector<SolveResult>> results(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Per-thread fixture: engines are not shared, only the pool.
      auto fixture = MakeRandomProblem(/*seed=*/21, /*num_segments=*/4,
                                       /*block_size=*/10);
      for (int round = 0; round < kRounds; ++round) {
        Result<SolveResult> solved = Solve(fixture->problem, options);
        if (!solved.ok()) {
          failures.fetch_add(1);
          return;
        }
        results[t].push_back(std::move(solved).value());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  // Every concurrent call produced the solo schedule bit for bit, and
  // counted exactly the solo call's work: a concurrent call's counters
  // bleeding into another's would break the equalities.
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), static_cast<size_t>(kRounds));
    for (const SolveResult& result : results[t]) {
      EXPECT_EQ(result.schedule.configs, reference.schedule.configs);
      EXPECT_EQ(result.schedule.total_cost, reference.schedule.total_cost);
      EXPECT_EQ(result.stats.costings, reference.stats.costings);
      EXPECT_EQ(result.stats.relaxations, reference.stats.relaxations);
    }
  }
}

TEST(SharedPoolSolveTest, ConcurrentCallsWithDistinctProblems) {
  // Different seeds -> different workloads, all through one pool. Each
  // call must still match its own solo reference.
  constexpr int kThreads = 6;
  std::vector<SolveResult> solo(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    auto fixture = MakeRandomProblem(/*seed=*/100 + t, /*num_segments=*/3,
                                     /*block_size=*/10);
    solo[t] = Solve(fixture->problem, KAwareOptions()).value();
  }

  ThreadPool pool(2);
  SolveOptions options = KAwareOptions();
  options.pool = &pool;
  std::vector<SolveResult> concurrent(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto fixture = MakeRandomProblem(/*seed=*/100 + t, /*num_segments=*/3,
                                       /*block_size=*/10);
      Result<SolveResult> solved = Solve(fixture->problem, options);
      if (!solved.ok()) {
        failures.fetch_add(1);
        return;
      }
      concurrent[t] = std::move(solved).value();
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(concurrent[t].schedule.configs, solo[t].schedule.configs);
    EXPECT_EQ(concurrent[t].schedule.total_cost,
              solo[t].schedule.total_cost);
  }
}

}  // namespace
}  // namespace cdpd
