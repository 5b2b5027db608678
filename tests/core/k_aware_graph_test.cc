#include "core/k_aware_graph.h"

#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

TEST(KAwareGraphTest, GraphSizeFormulas) {
  // Figure 2's instance: n = 3 stages, 2 configurations, k = 2.
  const KAwareGraphSize size = ComputeKAwareGraphSize(3, 2, 2);
  EXPECT_EQ(size.nodes, 3 * 3 * 2 + 2);
  // Edges: source->2, per stage gap: 3 layers * 2 stay + 2 layer-gaps
  // * 2 change, dest<-3*2. Two gaps between stages.
  EXPECT_EQ(size.edges, 2 + 2 * (3 * 2 + 2 * 2) + 3 * 2);
}

TEST(KAwareGraphTest, SequenceGraphSizeFigure1Instance) {
  // Figure 1: n = 3 statements, one candidate index -> 2
  // configurations: |V| = 8, |E| = 12.
  const KAwareGraphSize size = ComputeKAwareGraphSize(3, 2, std::nullopt);
  EXPECT_EQ(size.nodes, 8);
  EXPECT_EQ(size.edges, 12);
}

TEST(KAwareGraphTest, SequenceGraphSizeMatchesPaperFormulas) {
  // Figure 1's accounting: |V| = n*2^m + 2, |E| = (n-1)*2^{2m} + 2^{m+1}
  // (with "2^m" generalized to the candidate-configuration count m).
  for (const int64_t n : {1, 2, 3, 30}) {
    for (const int64_t m : {1, 2, 7, 64}) {
      const KAwareGraphSize size = ComputeKAwareGraphSize(n, m, std::nullopt);
      EXPECT_EQ(size.nodes, n * m + 2) << "n " << n << " m " << m;
      EXPECT_EQ(size.edges, (n - 1) * m * m + 2 * m)
          << "n " << n << " m " << m;
    }
  }
}

TEST(KAwareGraphTest, GraphSizeGrowsLinearlyInK) {
  const int64_t n = 30;
  const int64_t m = 7;
  const int64_t nodes_k2 = ComputeKAwareGraphSize(n, m, 2).nodes;
  const int64_t nodes_k4 = ComputeKAwareGraphSize(n, m, 4).nodes;
  const int64_t nodes_k8 = ComputeKAwareGraphSize(n, m, 8).nodes;
  EXPECT_EQ(nodes_k4 - nodes_k2, 2 * n * m);
  EXPECT_EQ(nodes_k8 - nodes_k4, 4 * n * m);
}

TEST(KAwareGraphTest, GraphSizeSaturatesInsteadOfOverflowing) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // k = INT64_MAX used to compute k+1 layers with signed overflow (UB);
  // now every product/sum saturates at INT64_MAX.
  const KAwareGraphSize huge_k = ComputeKAwareGraphSize(3, 2, kMax);
  EXPECT_EQ(huge_k.nodes, kMax);
  EXPECT_EQ(huge_k.edges, kMax);
  const KAwareGraphSize huge_all =
      ComputeKAwareGraphSize(kMax, kMax, kMax);
  EXPECT_EQ(huge_all.nodes, kMax);
  EXPECT_EQ(huge_all.edges, kMax);
  // Sanity: a modest instance is still exact.
  EXPECT_EQ(ComputeKAwareGraphSize(3, 2, 2).nodes, 3 * 3 * 2 + 2);
}

TEST(KAwareGraphTest, HugeKSolvesViaLayerClamping) {
  // k beyond n-1 cannot change the answer, so the solver clamps the
  // layer count instead of allocating (or overflowing) a k+1-layer
  // table. INT64_MAX must behave exactly like k = n-1.
  auto fixture = MakeRandomProblem(48, 6, 15);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  auto huge = SolveKAware(fixture->problem, std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(huge.ok()) << huge.status().ToString();
  EXPECT_NEAR(huge->total_cost, unconstrained->total_cost, 1e-6);
  auto exact = SolveKAware(fixture->problem, 5);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(huge->configs, exact->configs);
}

TEST(KAwareGraphTest, RespectsChangeBound) {
  auto fixture = MakeRandomProblem(20, 6, 15);
  for (int64_t k = 0; k <= 4; ++k) {
    auto schedule = SolveKAware(fixture->problem, k);
    ASSERT_TRUE(schedule.ok()) << "k=" << k;
    EXPECT_LE(CountChanges(fixture->problem, schedule->configs), k);
  }
}

TEST(KAwareGraphTest, MatchesBruteForceForAllK) {
  for (uint64_t seed = 30; seed < 34; ++seed) {
    auto fixture = MakeRandomProblem(seed, /*num_segments=*/4,
                                     /*block_size=*/10);
    for (int64_t k = 0; k <= 4; ++k) {
      auto graph = SolveKAware(fixture->problem, k);
      auto brute = SolveBruteForce(fixture->problem, k);
      ASSERT_TRUE(graph.ok());
      ASSERT_TRUE(brute.ok());
      EXPECT_NEAR(graph->total_cost, brute->total_cost, 1e-6)
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(KAwareGraphTest, CostIsMonotoneNonIncreasingInK) {
  auto fixture = MakeRandomProblem(40, 8, 20);
  double previous = std::numeric_limits<double>::infinity();
  for (int64_t k = 0; k <= 8; ++k) {
    auto schedule = SolveKAware(fixture->problem, k);
    ASSERT_TRUE(schedule.ok());
    EXPECT_LE(schedule->total_cost, previous + 1e-9);
    previous = schedule->total_cost;
  }
}

TEST(KAwareGraphTest, LargeKEqualsUnconstrainedOptimum) {
  auto fixture = MakeRandomProblem(41, 6, 20);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  // k = n-1 can express any schedule of n segments.
  auto schedule = SolveKAware(fixture->problem, 5);
  ASSERT_TRUE(schedule.ok());
  EXPECT_NEAR(schedule->total_cost, unconstrained->total_cost, 1e-6);
}

TEST(KAwareGraphTest, KZeroPicksBestStaticConfiguration) {
  auto fixture = MakeRandomProblem(42, 5, 15);
  auto schedule = SolveKAware(fixture->problem, 0);
  ASSERT_TRUE(schedule.ok());
  // All segments share one configuration...
  for (const Configuration& config : schedule->configs) {
    EXPECT_EQ(config, schedule->configs.front());
  }
  // ...and it beats (or ties) every other static choice.
  for (const Configuration& config : fixture->problem.candidates) {
    const std::vector<Configuration> static_schedule(5, config);
    EXPECT_LE(schedule->total_cost,
              EvaluateScheduleCost(fixture->problem, static_schedule) + 1e-9);
  }
}

TEST(KAwareGraphTest, CountInitialChangePolicyRestrictsFirstStage) {
  auto fixture = MakeRandomProblem(43, 5, 15);
  fixture->problem.count_initial_change = true;
  auto schedule = SolveKAware(fixture->problem, 0);
  ASSERT_TRUE(schedule.ok());
  // With k = 0 and the initial change counted, the schedule must stay
  // at C0 = {} throughout.
  for (const Configuration& config : schedule->configs) {
    EXPECT_TRUE(config.empty());
  }
}

TEST(KAwareGraphTest, RejectsNegativeK) {
  auto fixture = MakeRandomProblem(44, 3, 10);
  EXPECT_EQ(SolveKAware(fixture->problem, -1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(KAwareGraphTest, ReportedCostMatchesEvaluationAndStats) {
  auto fixture = MakeRandomProblem(45, 6, 15);
  SolveStats stats;
  auto schedule = SolveKAware(fixture->problem, 2, &stats);
  ASSERT_TRUE(schedule.ok());
  EXPECT_NEAR(schedule->total_cost,
              EvaluateScheduleCost(fixture->problem, schedule->configs),
              1e-6);
  EXPECT_GT(stats.nodes_expanded, 0);
  EXPECT_GT(stats.relaxations, 0);
}

TEST(KAwareGraphTest, RelaxationsGrowWithK) {
  auto fixture = MakeRandomProblem(46, 10, 15);
  SolveStats stats_small;
  SolveStats stats_large;
  ASSERT_TRUE(SolveKAware(fixture->problem, 1, &stats_small).ok());
  ASSERT_TRUE(SolveKAware(fixture->problem, 7, &stats_large).ok());
  EXPECT_GT(stats_large.relaxations, 2 * stats_small.relaxations);
}

TEST(KAwareGraphTest, ForcedFinalConfigurationIsHonored) {
  auto fixture = MakeRandomProblem(47, 5, 15);
  fixture->problem.final_config = Configuration::Empty();
  auto with_final = SolveKAware(fixture->problem, 2);
  ASSERT_TRUE(with_final.ok());
  EXPECT_NEAR(with_final->total_cost,
              EvaluateScheduleCost(fixture->problem, with_final->configs),
              1e-6);
  fixture->problem.final_config.reset();
  auto without_final = SolveKAware(fixture->problem, 2);
  ASSERT_TRUE(without_final.ok());
  EXPECT_LE(without_final->total_cost, with_final->total_cost + 1e-9);
}

// An unset k: the unconstrained sequence-graph optimum, one layer whose
// change edges stay inside it.

TEST(UnconstrainedOptimizerTest, MatchesBruteForceOnSmallInstances) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto fixture = MakeRandomProblem(seed, /*num_segments=*/4,
                                     /*block_size=*/10);
    // Without a bound the change-counting policy must not matter.
    for (bool count_initial : {false, true}) {
      fixture->problem.count_initial_change = count_initial;
      auto dp = SolveKAware(fixture->problem, std::nullopt);
      auto brute = SolveBruteForce(fixture->problem, /*k=*/-1);
      ASSERT_TRUE(dp.ok());
      ASSERT_TRUE(brute.ok());
      EXPECT_NEAR(dp->total_cost, brute->total_cost, 1e-6)
          << "seed " << seed << ", count_initial_change " << count_initial;
    }
  }
}

TEST(UnconstrainedOptimizerTest, ReportedCostMatchesEvaluation) {
  auto fixture = MakeRandomProblem(7, 6, 25);
  SolveStats stats;
  auto schedule = SolveKAware(fixture->problem, std::nullopt, &stats);
  ASSERT_TRUE(schedule.ok());
  EXPECT_NEAR(schedule->total_cost,
              EvaluateScheduleCost(fixture->problem, schedule->configs),
              1e-6);
  EXPECT_EQ(schedule->configs.size(), 6u);
  // The paper's m = 7 space takes the scan: one layer, so every cell of
  // the n = 6 stages is reached and each of the 5 relaxed stages does a
  // stay update plus m - 1 change updates per cell.
  ASSERT_EQ(fixture->problem.candidates.size(), 7u);
  EXPECT_EQ(stats.nodes_expanded, 6 * 7);
  EXPECT_EQ(stats.relaxations, 5 * 7 * 7);
}

TEST(UnconstrainedOptimizerTest, EmptyWorkloadCostsNothing) {
  auto fixture = MakeRandomProblem(8, 0, 1);
  auto schedule = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(schedule->configs.empty());
  EXPECT_DOUBLE_EQ(schedule->total_cost, 0.0);
}

TEST(UnconstrainedOptimizerTest, EmptyWorkloadWithForcedFinalPaysTransition) {
  auto fixture = MakeRandomProblem(9, 0, 1);
  const Configuration ia({IndexDef({0})});
  fixture->problem.final_config = ia;
  auto schedule = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(schedule.ok());
  EXPECT_DOUBLE_EQ(
      schedule->total_cost,
      fixture->problem.what_if->TransitionCost(Configuration::Empty(), ia));
}

TEST(UnconstrainedOptimizerTest, TracksHeavilySkewedWorkload) {
  // A long all-a workload must recommend an a-index in (nearly) every
  // segment once the build cost amortizes.
  auto fixture = MakeRandomProblem(10, 8, 200, /*max_indexes_per_config=*/1,
                                   /*num_rows=*/100'000,
                                   /*update_fraction=*/0.0);
  // Overwrite statements: every query hits column a.
  for (BoundStatement& s : fixture->statements) {
    s = BoundStatement::SelectPoint(0, 0, s.where_value);
  }
  WhatIfEngine what_if(fixture->model.get(), fixture->statements,
                       fixture->segments);
  fixture->problem.what_if = &what_if;
  auto schedule = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(schedule.ok());
  for (const Configuration& config : schedule->configs) {
    EXPECT_TRUE(config.Contains(IndexDef({0})) ||
                config.Contains(IndexDef({0, 1})));
  }
}

TEST(UnconstrainedOptimizerTest, ValidatesProblem) {
  auto fixture = MakeRandomProblem(11, 2, 5);
  fixture->problem.candidates = CandidateSpace();
  EXPECT_FALSE(SolveKAware(fixture->problem, std::nullopt).ok());
}

}  // namespace
}  // namespace cdpd
