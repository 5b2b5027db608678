#include "core/path_ranking.h"

#include <set>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/k_aware_graph.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

TEST(PathRankerTest, FirstPathIsTheShortest) {
  auto fixture = MakeRandomProblem(90, 4, 12);
  auto graph = SequenceGraph::Build(fixture->problem);
  ASSERT_TRUE(graph.ok());
  PathRanker ranker(*graph);
  auto first = ranker.Next();
  ASSERT_TRUE(first.has_value());
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  EXPECT_NEAR(first->cost, unconstrained->total_cost, 1e-6);
}

TEST(PathRankerTest, PathsComeInNonDecreasingCostOrder) {
  auto fixture = MakeRandomProblem(91, 4, 12);
  auto graph = SequenceGraph::Build(fixture->problem);
  ASSERT_TRUE(graph.ok());
  PathRanker ranker(*graph);
  double previous = -1;
  for (int i = 0; i < 200; ++i) {
    auto path = ranker.Next();
    ASSERT_TRUE(path.has_value()) << "path " << i;
    EXPECT_GE(path->cost, previous - 1e-9) << "path " << i;
    previous = path->cost;
    // Each path is a real source-to-destination path.
    EXPECT_EQ(path->nodes.front(), graph->source());
    EXPECT_EQ(path->nodes.back(), graph->destination());
    EXPECT_EQ(path->nodes.size(), 4u + 2u);
    // Its cost matches the schedule it spells.
    EXPECT_NEAR(path->cost,
                EvaluateScheduleCost(fixture->problem,
                                     graph->PathConfigs(path->nodes)),
                1e-6);
  }
}

TEST(PathRankerTest, EnumeratesAllPathsExactlyOnce) {
  auto fixture = MakeRandomProblem(92, 3, 10);
  // Shrink to 3 configurations for an exactly countable space.
  fixture->problem.candidates = fixture->problem.candidates.Prefix(3);
  auto graph = SequenceGraph::Build(fixture->problem);
  ASSERT_TRUE(graph.ok());
  PathRanker ranker(*graph);
  std::set<std::vector<SequenceGraph::NodeId>> seen;
  int count = 0;
  while (auto path = ranker.Next()) {
    EXPECT_TRUE(seen.insert(path->nodes).second) << "duplicate path";
    ++count;
    ASSERT_LE(count, 100);
  }
  EXPECT_EQ(count, 27);  // 3^3 distinct schedules.
}

TEST(SolveByRankingTest, MatchesKAwareOptimum) {
  for (uint64_t seed = 93; seed < 97; ++seed) {
    auto fixture = MakeRandomProblem(seed, 4, 10);
    for (int64_t k = 0; k <= 3; ++k) {
      auto ranked = SolveByRanking(fixture->problem, k);
      auto optimal = SolveKAware(fixture->problem, k);
      ASSERT_TRUE(ranked.ok()) << "seed " << seed << " k " << k;
      ASSERT_TRUE(optimal.ok());
      EXPECT_NEAR(ranked->total_cost, optimal->total_cost, 1e-6)
          << "seed " << seed << " k " << k;
      EXPECT_LE(CountChanges(fixture->problem, ranked->configs), k);
    }
  }
}

TEST(SolveByRankingTest, FirstPathWinsWhenUnconstrainedFitsK) {
  auto fixture = MakeRandomProblem(98, 5, 12);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  const int64_t l = CountChanges(fixture->problem, unconstrained->configs);
  SolveStats stats;
  auto ranked = SolveByRanking(fixture->problem, l, 1'000'000, &stats);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(stats.paths_enumerated, 1);
}

TEST(SolveByRankingTest, SmallKRanksMorePaths) {
  auto fixture = MakeRandomProblem(99, 5, 12);
  SolveStats loose;
  SolveStats tight;
  ASSERT_TRUE(SolveByRanking(fixture->problem, 4, 1'000'000, &loose).ok());
  ASSERT_TRUE(SolveByRanking(fixture->problem, 0, 1'000'000, &tight).ok());
  EXPECT_GE(tight.paths_enumerated, loose.paths_enumerated);
}

TEST(SolveByRankingTest, MaxPathsGuardDegradesToStaticBestEffort) {
  auto fixture = MakeRandomProblem(100, 5, 12);
  SolveStats stats;
  auto ranked =
      SolveByRanking(fixture->problem, 0, /*max_paths=*/1, &stats);
  // k=0 is always satisfiable here (count_initial_change is off), so
  // even when the one ranked path misses the bound, the static
  // fallback must answer — never ResourceExhausted.
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  EXPECT_LE(CountChanges(fixture->problem, ranked->configs), 0);
  EXPECT_NEAR(ranked->total_cost,
              EvaluateScheduleCost(fixture->problem, ranked->configs), 1e-9);
  if (stats.best_effort) {
    // The guard fired: the answer is the static fallback, flagged as
    // best-effort but NOT as a deadline hit (no budget was given).
    EXPECT_EQ(stats.paths_enumerated, 1);
    EXPECT_FALSE(stats.deadline_hit);
  } else {
    // The very first ranked path already satisfied k=0.
    EXPECT_EQ(stats.paths_enumerated, 1);
  }
}

TEST(SolveByRankingTest, RejectsNegativeK) {
  auto fixture = MakeRandomProblem(101, 3, 10);
  EXPECT_EQ(SolveByRanking(fixture->problem, -1).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cdpd
