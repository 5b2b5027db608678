#include "core/design_merging.h"

#include <gtest/gtest.h>

#include "core/k_aware_graph.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

TEST(DesignMergingTest, ReducesChangesToBound) {
  auto fixture = MakeRandomProblem(50, 8, 15);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  for (int64_t k = 0; k <= 4; ++k) {
    auto merged = MergeToConstraint(fixture->problem, *unconstrained, k);
    ASSERT_TRUE(merged.ok()) << "k=" << k;
    EXPECT_LE(CountChanges(fixture->problem, merged->configs), k);
    EXPECT_EQ(merged->configs.size(), 8u);
  }
}

TEST(DesignMergingTest, NoOpWhenConstraintAlreadySatisfied) {
  auto fixture = MakeRandomProblem(51, 6, 15);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  const int64_t l = CountChanges(fixture->problem, unconstrained->configs);
  SolveStats stats;
  auto merged =
      MergeToConstraint(fixture->problem, *unconstrained, l, &stats);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(stats.merge_steps, 0);
  EXPECT_EQ(merged->configs, unconstrained->configs);
}

TEST(DesignMergingTest, NeverBeatsOptimalConstrainedCost) {
  for (uint64_t seed = 52; seed < 56; ++seed) {
    auto fixture = MakeRandomProblem(seed, 6, 12);
    auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
    ASSERT_TRUE(unconstrained.ok());
    for (int64_t k = 0; k <= 3; ++k) {
      auto merged = MergeToConstraint(fixture->problem, *unconstrained, k);
      auto optimal = SolveKAware(fixture->problem, k);
      ASSERT_TRUE(merged.ok());
      ASSERT_TRUE(optimal.ok());
      EXPECT_GE(merged->total_cost, optimal->total_cost - 1e-9)
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(DesignMergingTest, StepCountBoundedByInitialChanges) {
  auto fixture = MakeRandomProblem(57, 10, 12);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  const int64_t l = CountChanges(fixture->problem, unconstrained->configs);
  SolveStats stats;
  auto merged =
      MergeToConstraint(fixture->problem, *unconstrained, 0, &stats);
  ASSERT_TRUE(merged.ok());
  EXPECT_LE(stats.merge_steps, std::max<int64_t>(l, 1));
  if (l > 0) {
    EXPECT_GT(stats.candidate_evaluations, 0);
  }
}

TEST(DesignMergingTest, ReportedCostMatchesEvaluation) {
  auto fixture = MakeRandomProblem(58, 7, 12);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  auto merged = MergeToConstraint(fixture->problem, *unconstrained, 1);
  ASSERT_TRUE(merged.ok());
  EXPECT_NEAR(merged->total_cost,
              EvaluateScheduleCost(fixture->problem, merged->configs), 1e-6);
}

TEST(DesignMergingTest, WorksFromAnyFeasibleStartingSchedule) {
  // Start from a deliberately bad schedule: alternate configurations.
  auto fixture = MakeRandomProblem(59, 6, 10);
  DesignSchedule bad;
  for (size_t i = 0; i < 6; ++i) {
    bad.configs.push_back(fixture->problem.candidates[i % 2]);
  }
  bad.total_cost = EvaluateScheduleCost(fixture->problem, bad.configs);
  auto merged = MergeToConstraint(fixture->problem, bad, 1);
  ASSERT_TRUE(merged.ok());
  EXPECT_LE(CountChanges(fixture->problem, merged->configs), 1);
}

TEST(DesignMergingTest, RejectsWrongScheduleLength) {
  auto fixture = MakeRandomProblem(60, 4, 10);
  DesignSchedule wrong;
  wrong.configs.resize(3, Configuration::Empty());
  EXPECT_EQ(MergeToConstraint(fixture->problem, wrong, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DesignMergingTest, RejectsNegativeK) {
  auto fixture = MakeRandomProblem(61, 4, 10);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  EXPECT_EQ(
      MergeToConstraint(fixture->problem, *unconstrained, -1).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(DesignMergingTest, CountedInitialChangeWithKZeroFallsBackToC0) {
  auto fixture = MakeRandomProblem(62, 5, 10);
  fixture->problem.count_initial_change = true;
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  auto merged = MergeToConstraint(fixture->problem, *unconstrained, 0);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(CountChanges(fixture->problem, merged->configs), 0);
  for (const Configuration& config : merged->configs) {
    EXPECT_EQ(config, fixture->problem.initial);
  }
}

}  // namespace
}  // namespace cdpd
