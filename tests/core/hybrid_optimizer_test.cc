// The §6.4 hybrid, reached through Solve(): its choice is the
// method_detail it reports.

#include <gtest/gtest.h>

#include "core/k_aware_graph.h"
#include "core/solver.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeIndex;
using testing_util::MakeRandomProblem;
using testing_util::ProblemFixture;
using testing_util::SolveWith;

// `num_segments` segments alternating between mixes A (mostly column
// a) and C (mostly c), over the two configurations {I(a)} and {I(c)}:
// consecutive segments want different indexes, so the unconstrained
// optimum changes design at nearly every segment and l approaches n.
// At small k merging's work estimate |C|(l^2 - k^2)/2 then exceeds the
// graph's (k+1) n |C|^2, and the hybrid takes the k-aware branch.
std::unique_ptr<ProblemFixture> MakeAlternatingProblem(size_t num_segments,
                                                       size_t block_size) {
  auto fixture = std::make_unique<ProblemFixture>();
  fixture->schema = MakePaperSchema();
  fixture->model = std::make_unique<CostModel>(fixture->schema, 100'000,
                                               testing_util::kTestDomain);
  WorkloadGenerator generator(fixture->schema, testing_util::kTestDomain,
                              /*seed=*/115);
  std::vector<int> blocks;
  for (size_t i = 0; i < num_segments; ++i) blocks.push_back(i % 2 ? 2 : 0);
  fixture->statements =
      generator.GenerateBlocked(MakePaperQueryMixes(), blocks, block_size)
          .value()
          .statements;
  fixture->segments = SegmentFixed(fixture->statements.size(), block_size);
  fixture->what_if = std::make_unique<WhatIfEngine>(
      fixture->model.get(), fixture->statements, fixture->segments);
  fixture->problem.what_if = fixture->what_if.get();
  fixture->problem.candidates = {
      Configuration({MakeIndex(fixture->schema, {"a"})}),
      Configuration({MakeIndex(fixture->schema, {"c"})})};
  fixture->problem.initial = Configuration::Empty();
  return fixture;
}

// The hybrid's own test of its estimates: true when the k-aware graph's
// (k+1) n |C|^2 is at most merging's |C|(l^2 - k^2)/2.
bool GraphIsCheaper(const DesignProblem& problem, int64_t l, int64_t k) {
  const auto n = static_cast<double>(problem.num_segments());
  const auto c = static_cast<double>(problem.candidates.size());
  return static_cast<double>(k + 1) * n * c * c <=
         c * static_cast<double>(l * l - k * k) / 2.0;
}

TEST(HybridOptimizerTest, ReturnsUnconstrainedWhenItFits) {
  auto fixture = MakeRandomProblem(110, 6, 15);
  auto unconstrained =
      SolveWith(fixture->problem, OptimizerMethod::kOptimal, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  const int64_t l =
      CountChanges(fixture->problem, unconstrained->schedule.configs);
  auto hybrid = SolveWith(fixture->problem, OptimizerMethod::kHybrid, l);
  ASSERT_TRUE(hybrid.ok());
  EXPECT_EQ(hybrid->method_detail, "hybrid chose unconstrained");
  EXPECT_EQ(CountChanges(fixture->problem, hybrid->schedule.configs), l);
  EXPECT_EQ(hybrid->unconstrained_cost, unconstrained->schedule.total_cost);
  EXPECT_NEAR(hybrid->schedule.total_cost,
              unconstrained->schedule.total_cost, 1e-9);
}

TEST(HybridOptimizerTest, AlwaysSatisfiesConstraint) {
  auto fixture = MakeRandomProblem(111, 10, 12);
  for (int64_t k = 0; k <= 6; ++k) {
    auto hybrid = SolveWith(fixture->problem, OptimizerMethod::kHybrid, k);
    ASSERT_TRUE(hybrid.ok()) << "k=" << k;
    EXPECT_LE(CountChanges(fixture->problem, hybrid->schedule.configs), k);
  }
}

TEST(HybridOptimizerTest, SmallKUsesGraphAndIsOptimal) {
  // Every segment prefers the other configuration, so l is large and,
  // for each small k below, the graph side's estimate wins: the hybrid
  // must then return SolveKAware(k)'s optimum.
  auto fixture = MakeAlternatingProblem(40, 200);
  auto unconstrained =
      SolveWith(fixture->problem, OptimizerMethod::kOptimal, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  const int64_t l =
      CountChanges(fixture->problem, unconstrained->schedule.configs);
  for (int64_t k = 0; k <= 2; ++k) {
    ASSERT_TRUE(GraphIsCheaper(fixture->problem, l, k))
        << "l=" << l << " k=" << k;
    auto hybrid = SolveWith(fixture->problem, OptimizerMethod::kHybrid, k);
    auto optimal = SolveKAware(fixture->problem, k);
    ASSERT_TRUE(hybrid.ok()) << "k=" << k;
    ASSERT_TRUE(optimal.ok()) << "k=" << k;
    EXPECT_EQ(hybrid->method_detail, "hybrid chose k-aware-graph")
        << "k=" << k;
    EXPECT_EQ(hybrid->schedule.configs, optimal->configs) << "k=" << k;
    EXPECT_EQ(hybrid->schedule.total_cost, optimal->total_cost) << "k=" << k;
    EXPECT_EQ(hybrid->unconstrained_cost, unconstrained->schedule.total_cost);
  }
}

TEST(HybridOptimizerTest, ChoiceFollowsWorkEstimates) {
  auto fixture = MakeRandomProblem(113, 12, 10);
  auto unconstrained =
      SolveWith(fixture->problem, OptimizerMethod::kOptimal, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  const int64_t l =
      CountChanges(fixture->problem, unconstrained->schedule.configs);
  if (l < 2) GTEST_SKIP() << "fixture produced a trivial schedule";
  for (int64_t k = 0; k < l; ++k) {
    auto hybrid = SolveWith(fixture->problem, OptimizerMethod::kHybrid, k);
    ASSERT_TRUE(hybrid.ok());
    EXPECT_EQ(hybrid->method_detail, GraphIsCheaper(fixture->problem, l, k)
                                         ? "hybrid chose k-aware-graph"
                                         : "hybrid chose merging")
        << "k=" << k;
  }
}

TEST(HybridOptimizerTest, RejectsNegativeK) {
  auto fixture = MakeRandomProblem(114, 3, 10);
  EXPECT_EQ(
      SolveWith(fixture->problem, OptimizerMethod::kHybrid, -1).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(HybridOptimizerTest, ChoiceNamesAreStable) {
  // method_detail is wire bytes: pin all three choices. On seed 113 the
  // unconstrained optimum's own change count l suffices and one bound
  // below it the estimates pick merging; on the alternating fixture
  // k = 0 picks the k-aware graph.
  const auto detail = [](const DesignProblem& problem, int64_t k) {
    return SolveWith(problem, OptimizerMethod::kHybrid, k)
        .value()
        .method_detail;
  };
  const auto changes = [](const DesignProblem& problem) {
    auto unconstrained =
        SolveWith(problem, OptimizerMethod::kOptimal, std::nullopt);
    return CountChanges(problem, unconstrained.value().schedule.configs);
  };

  auto fixture = MakeRandomProblem(113, 12, 10);
  const int64_t l = changes(fixture->problem);
  ASSERT_GE(l, 2);
  ASSERT_FALSE(GraphIsCheaper(fixture->problem, l, l - 1));
  EXPECT_EQ(detail(fixture->problem, l), "hybrid chose unconstrained");
  EXPECT_EQ(detail(fixture->problem, l - 1), "hybrid chose merging");

  auto alternating = MakeAlternatingProblem(40, 200);
  ASSERT_TRUE(
      GraphIsCheaper(alternating->problem, changes(alternating->problem), 0));
  EXPECT_EQ(detail(alternating->problem, 0), "hybrid chose k-aware-graph");
}

}  // namespace
}  // namespace cdpd
