// Randomized equivalence properties of the two scaling mechanisms:
//  * dominance pruning never changes the solved cost — for every
//    optimizer method, Solve() with prune_dominated on a space padded
//    with dominated (duplicate) configurations matches Solve() without
//    pruning (the dominated configurations never win an ascending
//    argmin tie, so even the heuristics are unaffected);
//  * a checkpointed k-aware solve (segmented.num_chunks >= 2) returns
//    the one-block schedule and cost for any chunk and thread count.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/solver.h"
#include "test_util.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

constexpr OptimizerMethod kAllMethods[] = {
    OptimizerMethod::kOptimal, OptimizerMethod::kGreedySeq,
    OptimizerMethod::kMerging, OptimizerMethod::kRanking,
    OptimizerMethod::kHybrid,
};

/// `problem` with `extra` duplicates of member configurations
/// appended: guaranteed dominated, so prune_dominated has real work.
DesignProblem WithDuplicates(const DesignProblem& problem, size_t extra) {
  DesignProblem out = problem;
  std::vector<Configuration> configs = problem.candidates.configs();
  const size_t base = configs.size();
  for (size_t i = 0; i < extra; ++i) {
    configs.push_back(configs[1 + (i % (base - 1))]);
  }
  out.candidates = configs;
  return out;
}

TEST(PruningEquivalenceTest, AllMethodsCostIdenticalUnderPruning) {
  for (uint64_t seed : {101u, 102u, 103u}) {
    auto fixture =
        MakeRandomProblem(seed, /*num_segments=*/6, /*block_size=*/10);
    const DesignProblem problem = WithDuplicates(fixture->problem, 4);
    for (OptimizerMethod method : kAllMethods) {
      for (int64_t k : {1, 3}) {
        SolveOptions options;
        options.method = method;
        options.k = k;
        options.num_threads = 1;
        if (method == OptimizerMethod::kGreedySeq) {
          options.greedy.candidate_indexes =
              MakePaperCandidateIndexes(fixture->schema);
          options.greedy.max_indexes_per_config = 1;
        }

        auto plain = Solve(problem, options);
        ASSERT_TRUE(plain.ok()) << plain.status().ToString();

        options.prune_dominated = true;
        auto pruned = Solve(problem, options);
        ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();

        EXPECT_GT(pruned->stats.pruned_configs, 0)
            << OptimizerMethodToString(method);
        EXPECT_NEAR(pruned->schedule.total_cost, plain->schedule.total_cost,
                    1e-9 * plain->schedule.total_cost)
            << "seed=" << seed << " k=" << k << " method "
            << OptimizerMethodToString(method);
      }
    }
  }
}

TEST(PruningEquivalenceTest, PruningReportsZeroOnIrreducibleSpaces) {
  // The fixture's enumerated space has no dominated members; pruning
  // must be a no-op that still solves to the same schedule.
  auto fixture = MakeRandomProblem(104, /*num_segments=*/6,
                                   /*block_size=*/10);
  SolveOptions options;
  options.k = 2;
  options.num_threads = 1;
  auto plain = Solve(fixture->problem, options);
  options.prune_dominated = true;
  auto pruned = Solve(fixture->problem, options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->stats.pruned_configs, 0);
  EXPECT_EQ(pruned->schedule.configs, plain->schedule.configs);
}

TEST(PruningEquivalenceTest, SegmentedSolveCostIdenticalToMonolithic) {
  for (uint64_t seed : {201u, 202u}) {
    auto fixture =
        MakeRandomProblem(seed, /*num_segments=*/18, /*block_size=*/8);
    for (int64_t k : {0, 2, 4}) {
      SolveOptions mono_options;
      mono_options.k = k;
      mono_options.num_threads = 1;
      mono_options.segmented.num_chunks = 1;
      auto mono = Solve(fixture->problem, mono_options);
      ASSERT_TRUE(mono.ok());
      for (int chunks : {2, 3, 6, 18}) {
        for (int threads : {1, 4}) {
          SolveOptions options;
          options.k = k;
          options.num_threads = threads;
          options.segmented.num_chunks = chunks;
          auto seg = Solve(fixture->problem, options);
          ASSERT_TRUE(seg.ok()) << seg.status().ToString();
          EXPECT_EQ(seg->schedule.total_cost, mono->schedule.total_cost)
              << "seed=" << seed << " k=" << k << " chunks=" << chunks
              << " threads=" << threads;
          EXPECT_EQ(seg->schedule.configs, mono->schedule.configs);
          // Determinism across thread counts: the identical schedule,
          // not just the identical cost.
          if (threads > 1) {
            SolveOptions serial = options;
            serial.num_threads = 1;
            auto serial_result = Solve(fixture->problem, serial);
            ASSERT_TRUE(serial_result.ok());
            EXPECT_EQ(seg->schedule.configs, serial_result->schedule.configs);
          }
        }
      }
    }
  }
}

TEST(PruningEquivalenceTest, PruningComposesWithSegmenting) {
  auto fixture = MakeRandomProblem(301, /*num_segments=*/16, /*block_size=*/8);
  const DesignProblem problem = WithDuplicates(fixture->problem, 3);
  SolveOptions baseline;
  baseline.k = 3;
  baseline.num_threads = 1;
  auto plain = Solve(problem, baseline);
  ASSERT_TRUE(plain.ok());

  SolveOptions options = baseline;
  options.prune_dominated = true;
  options.segmented.num_chunks = 4;
  auto combined = Solve(problem, options);
  ASSERT_TRUE(combined.ok());
  EXPECT_GT(combined->stats.pruned_configs, 0);
  EXPECT_EQ(combined->stats.segment_chunks, 4);
  EXPECT_EQ(combined->schedule.configs, plain->schedule.configs);
  EXPECT_EQ(combined->schedule.total_cost, plain->schedule.total_cost);
}

}  // namespace
}  // namespace cdpd
