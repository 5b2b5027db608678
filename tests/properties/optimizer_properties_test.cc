// Cross-algorithm property suite: for random problem instances, the
// three provably-optimal solvers (brute force, k-aware graph, path
// ranking) must agree exactly, the heuristics must be feasible and no
// better than optimal, and the optimal cost must be monotone in k.
// These are the key invariants of DESIGN.md §6.

#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/design_merging.h"
#include "core/greedy_seq.h"
#include "core/k_aware_graph.h"
#include "core/solver.h"
#include "core/validator.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;
using testing_util::SolveWith;

// (seed, num_segments, max_indexes_per_config)
using ParamType = std::tuple<uint64_t, size_t, int32_t>;

class OptimizerAgreementTest : public ::testing::TestWithParam<ParamType> {};

TEST_P(OptimizerAgreementTest, OptimalSolversAgreeForEveryK) {
  const auto [seed, segments, max_per_config] = GetParam();
  auto fixture =
      MakeRandomProblem(seed, segments, /*block_size=*/8, max_per_config);
  if (max_per_config > 1) {
    // Keep brute force tractable: restrict to the first 5 configs.
    if (fixture->problem.candidates.size() > 5) {
      fixture->problem.candidates = fixture->problem.candidates.Prefix(5);
    }
  }

  for (int64_t k = 0; k <= static_cast<int64_t>(segments); ++k) {
    auto brute = SolveBruteForce(fixture->problem, k);
    auto graph = SolveKAware(fixture->problem, k);
    auto ranked = SolveWith(fixture->problem, OptimizerMethod::kRanking, k);
    ASSERT_TRUE(brute.ok()) << "k=" << k;
    ASSERT_TRUE(graph.ok()) << "k=" << k;
    ASSERT_TRUE(ranked.ok()) << "k=" << k;

    EXPECT_EQ(brute->total_cost, graph->total_cost) << "k=" << k;
    EXPECT_EQ(brute->total_cost, ranked->schedule.total_cost) << "k=" << k;

    EXPECT_TRUE(ValidateSchedule(fixture->problem, *graph, k).ok());
    EXPECT_TRUE(ValidateSchedule(fixture->problem, ranked->schedule, k).ok());
  }
}

TEST_P(OptimizerAgreementTest, HeuristicsAreFeasibleAndDominated) {
  const auto [seed, segments, max_per_config] = GetParam();
  auto fixture =
      MakeRandomProblem(seed, segments, /*block_size=*/8, max_per_config);

  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());

  GreedySeqOptions greedy_options;
  greedy_options.candidate_indexes =
      MakePaperCandidateIndexes(fixture->schema);
  greedy_options.max_indexes_per_config = max_per_config;

  for (int64_t k = 0; k <= static_cast<int64_t>(segments); ++k) {
    auto optimal = SolveKAware(fixture->problem, k);
    ASSERT_TRUE(optimal.ok());

    auto merged = MergeToConstraint(fixture->problem, *unconstrained, k);
    ASSERT_TRUE(merged.ok());
    EXPECT_LE(CountChanges(fixture->problem, merged->configs), k);
    EXPECT_GE(merged->total_cost, optimal->total_cost - 1e-9);
    EXPECT_TRUE(ValidateSchedule(fixture->problem, *merged, k).ok());

    auto greedy = SolveWith(fixture->problem, OptimizerMethod::kGreedySeq, k,
                            greedy_options);
    ASSERT_TRUE(greedy.ok());
    EXPECT_LE(CountChanges(fixture->problem, greedy->schedule.configs), k);
    EXPECT_GE(greedy->schedule.total_cost, optimal->total_cost - 1e-9);

    auto hybrid = SolveWith(fixture->problem, OptimizerMethod::kHybrid, k);
    ASSERT_TRUE(hybrid.ok());
    EXPECT_LE(CountChanges(fixture->problem, hybrid->schedule.configs), k);
    EXPECT_GE(hybrid->schedule.total_cost, optimal->total_cost - 1e-9);
  }
}

TEST_P(OptimizerAgreementTest, OptimalCostIsMonotoneInK) {
  const auto [seed, segments, max_per_config] = GetParam();
  auto fixture =
      MakeRandomProblem(seed, segments, /*block_size=*/8, max_per_config);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());

  double previous = std::numeric_limits<double>::infinity();
  for (int64_t k = 0; k <= static_cast<int64_t>(segments); ++k) {
    auto schedule = SolveKAware(fixture->problem, k);
    ASSERT_TRUE(schedule.ok());
    EXPECT_LE(schedule->total_cost, previous + 1e-9) << "k=" << k;
    EXPECT_GE(schedule->total_cost, unconstrained->total_cost - 1e-9);
    previous = schedule->total_cost;
  }
  // At k = segments, any schedule is expressible.
  EXPECT_NEAR(previous, unconstrained->total_cost, 1e-6);
}

TEST_P(OptimizerAgreementTest, InitialChangePolicyAgreesAcrossSolvers) {
  const auto [seed, segments, max_per_config] = GetParam();
  auto fixture =
      MakeRandomProblem(seed, segments, /*block_size=*/8, max_per_config);
  if (fixture->problem.candidates.size() > 5) {
    fixture->problem.candidates =
        fixture->problem.candidates.Prefix(5);  // Keep brute force tractable.
  }
  fixture->problem.count_initial_change = true;

  for (int64_t k = 0; k <= 2; ++k) {
    auto brute = SolveBruteForce(fixture->problem, k);
    auto graph = SolveKAware(fixture->problem, k);
    auto ranked = SolveWith(fixture->problem, OptimizerMethod::kRanking, k);
    ASSERT_TRUE(brute.ok());
    ASSERT_TRUE(graph.ok());
    ASSERT_TRUE(ranked.ok());
    EXPECT_EQ(brute->total_cost, graph->total_cost) << "k=" << k;
    EXPECT_EQ(brute->total_cost, ranked->schedule.total_cost) << "k=" << k;
  }
}

TEST_P(OptimizerAgreementTest, ForcedFinalConfigAgreesAcrossSolvers) {
  const auto [seed, segments, max_per_config] = GetParam();
  auto fixture =
      MakeRandomProblem(seed, segments, /*block_size=*/8, max_per_config);
  if (fixture->problem.candidates.size() > 5) {
    fixture->problem.candidates =
        fixture->problem.candidates.Prefix(5);  // Keep brute force tractable.
  }
  fixture->problem.final_config = Configuration::Empty();

  for (int64_t k = 0; k <= 2; ++k) {
    auto brute = SolveBruteForce(fixture->problem, k);
    auto graph = SolveKAware(fixture->problem, k);
    auto ranked = SolveWith(fixture->problem, OptimizerMethod::kRanking, k);
    ASSERT_TRUE(brute.ok());
    ASSERT_TRUE(graph.ok());
    ASSERT_TRUE(ranked.ok());
    EXPECT_EQ(brute->total_cost, graph->total_cost) << "k=" << k;
    EXPECT_EQ(brute->total_cost, ranked->schedule.total_cost) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, OptimizerAgreementTest,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6),
                       ::testing::Values<size_t>(2, 3, 5),
                       ::testing::Values<int32_t>(1, 2)),
    [](const ::testing::TestParamInfo<ParamType>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_maxidx" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace cdpd
