#include "core/path_ranking.h"

#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/k_aware_graph.h"
#include "core/relax_stage.h"
#include "core/solver.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

/// The ranking method through Solve(), serially.
Result<SolveResult> Rank(const DesignProblem& problem, int64_t k,
                         int64_t max_paths = 1'000'000) {
  SolveOptions options;
  options.method = OptimizerMethod::kRanking;
  options.k = k;
  options.num_threads = 1;
  options.ranking_max_paths = max_paths;
  return Solve(problem, options);
}

CostMatrix Precompute(const DesignProblem& problem) {
  return problem.what_if->PrecomputeCostMatrix(problem.candidates).value();
}

std::vector<Configuration> ConfigsOf(const DesignProblem& problem,
                                     const RankedPath& path) {
  std::vector<Configuration> configs;
  for (const ConfigId id : path.configs) {
    configs.push_back(problem.candidates[id]);
  }
  return configs;
}

TEST(PathRankerTest, FirstPathIsTheShortest) {
  // The paper's seven singleton configurations (the scan path) and the
  // 22 configurations of at most two indexes (the lattice path, which
  // the ranker's π^1 pass does not take).
  for (const int32_t max_per_config : {1, 2}) {
    auto fixture = MakeRandomProblem(90, 4, 12, max_per_config);
    ASSERT_EQ(ChooseRelaxPath(fixture->problem.candidates),
              max_per_config == 1 ? RelaxPath::kScan : RelaxPath::kLattice);
    const CostMatrix matrix = Precompute(fixture->problem);
    PathRanker ranker(fixture->problem, matrix);
    auto first = ranker.Next();
    ASSERT_TRUE(first.has_value());
    const std::vector<Configuration> configs =
        ConfigsOf(fixture->problem, *first);
    EXPECT_EQ(first->cost, EvaluateScheduleCost(fixture->problem, configs));
    auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
    ASSERT_TRUE(unconstrained.ok());
    if (max_per_config == 1) {
      EXPECT_EQ(configs, unconstrained->configs);
      EXPECT_EQ(first->cost, unconstrained->total_cost);
    } else {
      // The lattice adds in another order, so only the cost bound holds
      // exactly: no schedule is cheaper than the first ranked path.
      EXPECT_LE(first->cost, unconstrained->total_cost);
      EXPECT_NEAR(first->cost, unconstrained->total_cost, 1e-6);
    }
  }
}

TEST(PathRankerTest, PathsComeInNonDecreasingCostOrder) {
  auto fixture = MakeRandomProblem(91, 4, 12);
  const CostMatrix matrix = Precompute(fixture->problem);
  PathRanker ranker(fixture->problem, matrix);
  double previous = -1;
  for (int i = 0; i < 200; ++i) {
    auto path = ranker.Next();
    ASSERT_TRUE(path.has_value()) << "path " << i;
    EXPECT_GE(path->cost, previous) << "path " << i;
    previous = path->cost;
    // Each path is a real source-to-destination path whose cost is the
    // schedule it spells, priced by the oracle.
    ASSERT_EQ(path->configs.size(), 4u);
    EXPECT_EQ(path->cost,
              EvaluateScheduleCost(fixture->problem,
                                   ConfigsOf(fixture->problem, *path)))
        << "path " << i;
  }
  EXPECT_EQ(ranker.paths_yielded(), 200);
}

TEST(PathRankerTest, EnumeratesAllPathsExactlyOnce) {
  auto fixture = MakeRandomProblem(92, 3, 10);
  // Shrink to 3 configurations for an exactly countable space.
  fixture->problem.candidates = fixture->problem.candidates.Prefix(3);
  const CostMatrix matrix = Precompute(fixture->problem);
  PathRanker ranker(fixture->problem, matrix);
  std::set<std::vector<ConfigId>> seen;
  int count = 0;
  while (auto path = ranker.Next()) {
    EXPECT_TRUE(seen.insert(path->configs).second) << "duplicate path";
    ++count;
    ASSERT_LE(count, 100);
  }
  EXPECT_EQ(count, 27);  // 3^3 distinct schedules.
}

TEST(PathRankerTest, FinalConfigWeighsTheDestinationEdge) {
  auto fixture = MakeRandomProblem(3, 3, 15);
  fixture->problem.candidates = fixture->problem.candidates.Prefix(3);
  DesignProblem constrained = fixture->problem;
  constrained.final_config = Configuration::Empty();
  const CostMatrix matrix = Precompute(fixture->problem);
  std::map<std::vector<ConfigId>, double> free_cost;
  PathRanker free_ranker(fixture->problem, matrix);
  while (auto path = free_ranker.Next()) {
    free_cost[path->configs] = path->cost;
  }
  ASSERT_EQ(free_cost.size(), 27u);
  PathRanker ranker(constrained, matrix);
  double previous = -1;
  int count = 0;
  while (auto path = ranker.Next()) {
    ++count;
    EXPECT_GE(path->cost, previous);
    previous = path->cost;
    const std::vector<Configuration> configs =
        ConfigsOf(constrained, *path);
    EXPECT_EQ(path->cost, EvaluateScheduleCost(constrained, configs));
    // Ending on the empty configuration drops nothing; any other last
    // configuration pays its drop cost on the destination edge.
    if (configs.back().empty()) {
      EXPECT_EQ(path->cost, free_cost[path->configs]);
    } else {
      EXPECT_GT(path->cost, free_cost[path->configs]);
    }
  }
  EXPECT_EQ(count, 27);
}

// The sequence graph of Figure 1 is implicit in the ranker: its first
// ranked path is the graph's shortest source-to-destination path.
TEST(SequenceGraphTest, ShortestPathMatchesDpOptimizer) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/3,
                                   /*block_size=*/15);
  const CostMatrix matrix = Precompute(fixture->problem);
  PathRanker ranker(fixture->problem, matrix);
  auto shortest = ranker.Next();
  ASSERT_TRUE(shortest.has_value());
  auto schedule = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(schedule.ok());
  EXPECT_NEAR(shortest->cost, schedule->total_cost, 1e-6);

  ASSERT_EQ(shortest->configs.size(), 3u);  // One node per stage.
  // Both are optimal; tie-breaking may differ, so compare by cost.
  EXPECT_NEAR(EvaluateScheduleCost(fixture->problem,
                                   ConfigsOf(fixture->problem, *shortest)),
              schedule->total_cost, 1e-6);
}

TEST(SequenceGraphTest, PathWeightEqualsScheduleCost) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/3,
                                   /*block_size=*/15);
  const CostMatrix matrix = Precompute(fixture->problem);
  PathRanker ranker(fixture->problem, matrix);
  auto shortest = ranker.Next();
  ASSERT_TRUE(shortest.has_value());
  EXPECT_EQ(shortest->cost,
            EvaluateScheduleCost(fixture->problem,
                                 ConfigsOf(fixture->problem, *shortest)));
}

TEST(SolveByRankingTest, MatchesKAwareOptimum) {
  for (uint64_t seed = 93; seed < 97; ++seed) {
    auto fixture = MakeRandomProblem(seed, 4, 10);
    for (int64_t k = 0; k <= 3; ++k) {
      auto ranked = Rank(fixture->problem, k);
      auto optimal = SolveKAware(fixture->problem, k);
      ASSERT_TRUE(ranked.ok()) << "seed " << seed << " k " << k;
      ASSERT_TRUE(optimal.ok());
      EXPECT_EQ(ranked->schedule.total_cost, optimal->total_cost)
          << "seed " << seed << " k " << k;
      EXPECT_EQ(ranked->schedule.total_cost,
                EvaluateScheduleCost(fixture->problem,
                                     ranked->schedule.configs));
      EXPECT_LE(CountChanges(fixture->problem, ranked->schedule.configs), k);
    }
  }
}

TEST(SolveByRankingTest, EmptyWorkloadGetsTheEmptySchedule) {
  auto empty = MakeRandomProblem(/*seed=*/5, /*num_segments=*/0,
                                 /*block_size=*/1);
  auto ranked = Rank(empty->problem, 0);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  EXPECT_TRUE(ranked->schedule.configs.empty());
  EXPECT_EQ(ranked->schedule.total_cost, 0.0);
  EXPECT_EQ(ranked->stats.paths_enumerated, 1);
  EXPECT_FALSE(ranked->stats.best_effort);

  // A constrained destination is the one source-to-destination edge.
  empty->problem.final_config = empty->problem.candidates[1];
  ASSERT_FALSE(empty->problem.final_config->empty());
  ranked = Rank(empty->problem, 0);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  EXPECT_TRUE(ranked->schedule.configs.empty());
  EXPECT_EQ(ranked->schedule.total_cost,
            empty->what_if->TransitionCost(empty->problem.initial,
                                           *empty->problem.final_config));
  EXPECT_GT(ranked->schedule.total_cost, 0.0);
  EXPECT_EQ(ranked->schedule.total_cost,
            EvaluateScheduleCost(empty->problem, {}));
}

TEST(SolveByRankingTest, FirstPathWinsWhenUnconstrainedFitsK) {
  auto fixture = MakeRandomProblem(98, 5, 12);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  const int64_t l = CountChanges(fixture->problem, unconstrained->configs);
  auto ranked = Rank(fixture->problem, l);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->stats.paths_enumerated, 1);
}

TEST(SolveByRankingTest, SmallKRanksMorePaths) {
  auto fixture = MakeRandomProblem(99, 5, 12);
  auto loose = Rank(fixture->problem, 4);
  auto tight = Rank(fixture->problem, 0);
  ASSERT_TRUE(loose.ok());
  ASSERT_TRUE(tight.ok());
  EXPECT_GE(tight->stats.paths_enumerated, loose->stats.paths_enumerated);
}

TEST(SolveByRankingTest, MaxPathsGuardDegradesToStaticBestEffort) {
  auto fixture = MakeRandomProblem(100, 5, 12);
  auto ranked = Rank(fixture->problem, 0, /*max_paths=*/1);
  // k=0 is always satisfiable here (count_initial_change is off), so
  // even when the one ranked path misses the bound, the static
  // fallback must answer — never ResourceExhausted.
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  const SolveStats& stats = ranked->stats;
  EXPECT_LE(CountChanges(fixture->problem, ranked->schedule.configs), 0);
  EXPECT_NEAR(ranked->schedule.total_cost,
              EvaluateScheduleCost(fixture->problem, ranked->schedule.configs),
              1e-9);
  EXPECT_EQ(ranked->method_detail, "ranked paths: 1");
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
  EXPECT_EQ(Rank(fixture->problem, -1).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cdpd
