#include "core/hybrid_optimizer.h"

#include <gtest/gtest.h>

#include "core/k_aware_graph.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

TEST(HybridOptimizerTest, ReturnsUnconstrainedWhenItFits) {
  auto fixture = MakeRandomProblem(110, 6, 15);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  const int64_t l = CountChanges(fixture->problem, unconstrained->configs);
  auto hybrid = SolveHybrid(fixture->problem, l);
  ASSERT_TRUE(hybrid.ok());
  EXPECT_EQ(hybrid->choice, HybridChoice::kUnconstrainedSufficed);
  EXPECT_EQ(hybrid->unconstrained_changes, l);
  EXPECT_NEAR(hybrid->schedule.total_cost, unconstrained->total_cost, 1e-9);
}

TEST(HybridOptimizerTest, AlwaysSatisfiesConstraint) {
  auto fixture = MakeRandomProblem(111, 10, 12);
  for (int64_t k = 0; k <= 6; ++k) {
    auto hybrid = SolveHybrid(fixture->problem, k);
    ASSERT_TRUE(hybrid.ok()) << "k=" << k;
    EXPECT_LE(CountChanges(fixture->problem, hybrid->schedule.configs), k);
  }
}

TEST(HybridOptimizerTest, SmallKUsesGraphAndIsOptimal) {
  // Force a large l by making every segment prefer a different config,
  // then ask for k = 0: graph work (1*n*|C|^2) ~ merging work only if
  // l is large; with n small the graph side wins.
  auto fixture = MakeRandomProblem(112, 12, 10);
  auto hybrid = SolveHybrid(fixture->problem, 0);
  ASSERT_TRUE(hybrid.ok());
  if (hybrid->choice == HybridChoice::kKAwareGraph) {
    auto optimal = SolveKAware(fixture->problem, 0);
    ASSERT_TRUE(optimal.ok());
    EXPECT_NEAR(hybrid->schedule.total_cost, optimal->total_cost, 1e-9);
  }
}

TEST(HybridOptimizerTest, ChoiceFollowsWorkEstimates) {
  auto fixture = MakeRandomProblem(113, 12, 10);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  const int64_t l = CountChanges(fixture->problem, unconstrained->configs);
  if (l < 2) GTEST_SKIP() << "fixture produced a trivial schedule";
  const auto n = static_cast<double>(fixture->problem.num_segments());
  const auto c = static_cast<double>(fixture->problem.candidates.size());
  for (int64_t k = 0; k < l; ++k) {
    auto hybrid = SolveHybrid(fixture->problem, k);
    ASSERT_TRUE(hybrid.ok());
    const double graph_work = static_cast<double>(k + 1) * n * c * c;
    const double merging_work =
        c * static_cast<double>(l * l - k * k) / 2.0;
    EXPECT_EQ(hybrid->choice, graph_work <= merging_work
                                  ? HybridChoice::kKAwareGraph
                                  : HybridChoice::kMerging)
        << "k=" << k;
  }
}

TEST(HybridOptimizerTest, RejectsNegativeK) {
  auto fixture = MakeRandomProblem(114, 3, 10);
  EXPECT_EQ(SolveHybrid(fixture->problem, -1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HybridOptimizerTest, ChoiceNamesAreStable) {
  EXPECT_EQ(HybridChoiceToString(HybridChoice::kUnconstrainedSufficed),
            "unconstrained");
  EXPECT_EQ(HybridChoiceToString(HybridChoice::kKAwareGraph),
            "k-aware-graph");
  EXPECT_EQ(HybridChoiceToString(HybridChoice::kMerging), "merging");
}

}  // namespace
}  // namespace cdpd
