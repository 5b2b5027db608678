// The unified Solve() entry point: all five techniques behind one
// signature, option validation, and the SolveStats surface.

#include "core/solver.h"

#include <gtest/gtest.h>

#include "core/k_aware_graph.h"
#include "core/validator.h"
#include "test_util.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;
using testing_util::ProblemFixture;

SolveOptions BaseOptions(OptimizerMethod method, int64_t k) {
  SolveOptions options;
  options.method = method;
  options.k = k;
  options.num_threads = 1;
  return options;
}

TEST(SolverTest, AllFiveMethodsAreReachable) {
  auto fixture = MakeRandomProblem(201, 8, 12);
  for (OptimizerMethod method :
       {OptimizerMethod::kOptimal, OptimizerMethod::kGreedySeq,
        OptimizerMethod::kMerging, OptimizerMethod::kRanking,
        OptimizerMethod::kHybrid}) {
    SolveOptions options = BaseOptions(method, 2);
    if (method == OptimizerMethod::kGreedySeq) {
      options.greedy.candidate_indexes =
          MakePaperCandidateIndexes(fixture->schema);
      options.greedy.max_indexes_per_config = 1;
    }
    auto result = Solve(fixture->problem, options);
    ASSERT_TRUE(result.ok())
        << OptimizerMethodToString(method) << ": " << result.status();
    EXPECT_EQ(result->schedule.configs.size(),
              fixture->problem.num_segments())
        << OptimizerMethodToString(method);
    EXPECT_LE(CountChanges(fixture->problem, result->schedule.configs), 2)
        << OptimizerMethodToString(method);
    EXPECT_FALSE(result->method_detail.empty());
  }
}

TEST(SolverTest, StatsArePopulated) {
  auto fixture = MakeRandomProblem(202, 8, 12);
  auto result = Solve(fixture->problem, BaseOptions(OptimizerMethod::kOptimal, 2));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->stats.wall_seconds, 0.0);
  EXPECT_GT(result->stats.costings, 0);
  EXPECT_GT(result->stats.nodes_expanded, 0);
  EXPECT_GT(result->stats.relaxations, 0);
  EXPECT_EQ(result->stats.threads_used, 1);
}

TEST(SolverTest, NulloptKSolvesUnconstrained) {
  auto fixture = MakeRandomProblem(203, 8, 12);
  SolveOptions options;
  options.num_threads = 1;
  for (OptimizerMethod method :
       {OptimizerMethod::kOptimal, OptimizerMethod::kMerging,
        OptimizerMethod::kRanking, OptimizerMethod::kHybrid}) {
    options.method = method;
    auto result = Solve(fixture->problem, options);
    ASSERT_TRUE(result.ok()) << OptimizerMethodToString(method);
    auto reference = SolveKAware(fixture->problem, std::nullopt);
    ASSERT_TRUE(reference.ok());
    EXPECT_NEAR(result->schedule.total_cost, reference->total_cost, 1e-9)
        << OptimizerMethodToString(method);
  }
}

TEST(SolverTest, OptimalMatchesDirectKAware) {
  auto fixture = MakeRandomProblem(204, 8, 12);
  auto unified = Solve(fixture->problem, BaseOptions(OptimizerMethod::kOptimal, 3));
  ASSERT_TRUE(unified.ok());
  auto direct = SolveKAware(fixture->problem, 3);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(unified->schedule.configs, direct->configs);
  EXPECT_EQ(unified->schedule.total_cost, direct->total_cost);
}

TEST(SolverTest, GreedySeqReportsReducedCandidates) {
  auto fixture = MakeRandomProblem(205, 8, 12);
  SolveOptions options = BaseOptions(OptimizerMethod::kGreedySeq, 2);
  options.greedy.candidate_indexes =
      MakePaperCandidateIndexes(fixture->schema);
  options.greedy.max_indexes_per_config = 1;
  auto result = Solve(fixture->problem, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->reduced_candidates.empty());
  // The other methods leave the field empty.
  auto optimal = Solve(fixture->problem, BaseOptions(OptimizerMethod::kOptimal, 2));
  ASSERT_TRUE(optimal.ok());
  EXPECT_TRUE(optimal->reduced_candidates.empty());
}

TEST(SolverTest, ValidateRejectsBadOptions) {
  auto fixture = MakeRandomProblem(206, 4, 10);
  {
    SolveOptions options;
    options.k = -1;
    auto result = Solve(fixture->problem, options);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {
    SolveOptions options;
    options.num_threads = -2;
    auto result = Solve(fixture->problem, options);
    EXPECT_FALSE(result.ok());
  }
  {
    // Past the thread cap: rejected before any pool is built.
    SolveOptions options;
    options.num_threads = ThreadPool::kMaxThreads + 1;
    auto result = Solve(fixture->problem, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {
    SolveOptions options;
    options.ranking_max_paths = 0;
    auto result = Solve(fixture->problem, options);
    EXPECT_FALSE(result.ok());
  }
  {
    SolveOptions options;
    options.method = OptimizerMethod::kGreedySeq;  // No indexes given.
    auto result = Solve(fixture->problem, options);
    EXPECT_FALSE(result.ok());
  }
}

SolveOptions MethodOptions(const ProblemFixture& fixture,
                           OptimizerMethod method, std::optional<int64_t> k) {
  SolveOptions options;
  options.method = method;
  options.k = k;
  options.num_threads = 1;
  if (method == OptimizerMethod::kGreedySeq) {
    options.greedy.candidate_indexes =
        MakePaperCandidateIndexes(fixture.schema);
    options.greedy.max_indexes_per_config = 1;
  }
  return options;
}

TEST(SolverTest, MethodDetailIsPinnedForEveryMethod) {
  // method_detail is wire bytes (RECOMMEND answers, journal replay).
  auto fixture = MakeRandomProblem(201, 8, 12);
  const std::vector<std::pair<OptimizerMethod, std::vector<std::string>>>
      expected = {
          {OptimizerMethod::kOptimal,
           {"k-aware sequence graph", "sequence-graph shortest path"}},
          {OptimizerMethod::kGreedySeq,
           {"greedy-seq reduced candidates: 5",
            "greedy-seq reduced candidates: 5"}},
          {OptimizerMethod::kMerging,
           {"merging steps: 1",
            "merging (no constraint; unconstrained optimum)"}},
          {OptimizerMethod::kRanking,
           {"ranked paths: 7", "ranking (no constraint; shortest path)"}},
          {OptimizerMethod::kHybrid,
           {"hybrid chose merging", "hybrid (no constraint; shortest path)"}},
      };
  for (const auto& [method, details] : expected) {
    auto bounded = Solve(fixture->problem, MethodOptions(*fixture, method, 2));
    auto unset =
        Solve(fixture->problem, MethodOptions(*fixture, method, std::nullopt));
    ASSERT_TRUE(bounded.ok()) << OptimizerMethodToString(method);
    ASSERT_TRUE(unset.ok()) << OptimizerMethodToString(method);
    EXPECT_EQ(bounded->method_detail, details[0]);
    EXPECT_EQ(unset->method_detail, details[1]);
  }
}

TEST(SolverTest, CostingsAreTheEngineCounterDifference) {
  // One engine per solve, so the difference holds only this solve's
  // probes.
  for (OptimizerMethod method :
       {OptimizerMethod::kOptimal, OptimizerMethod::kGreedySeq,
        OptimizerMethod::kMerging, OptimizerMethod::kRanking,
        OptimizerMethod::kHybrid}) {
    for (bool prune : {false, true}) {
      for (std::optional<int64_t> k :
           {std::optional<int64_t>(), std::optional<int64_t>(0),
            std::optional<int64_t>(2)}) {
        auto fixture = MakeRandomProblem(208, 8, 12);
        SolveOptions options = MethodOptions(*fixture, method, k);
        options.prune_dominated = prune;
        const int64_t before = fixture->what_if->costings();
        auto result = Solve(fixture->problem, options);
        ASSERT_TRUE(result.ok()) << OptimizerMethodToString(method);
        EXPECT_EQ(result->stats.costings,
                  fixture->what_if->costings() - before)
            << OptimizerMethodToString(method) << " prune=" << prune
            << " k=" << k.value_or(-1);
        EXPECT_GT(result->stats.costings, 0);
      }
    }
  }
}

TEST(SolverTest, SchedulesValidate) {
  auto fixture = MakeRandomProblem(207, 8, 12);
  for (int64_t k = 0; k <= 4; ++k) {
    auto result = Solve(fixture->problem, BaseOptions(OptimizerMethod::kOptimal, k));
    ASSERT_TRUE(result.ok()) << "k=" << k;
    EXPECT_TRUE(
        ValidateSchedule(fixture->problem, result->schedule, k).ok());
  }
}

}  // namespace
}  // namespace cdpd
