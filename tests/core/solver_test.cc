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
