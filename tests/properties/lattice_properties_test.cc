// Solver-level differential tests of the relaxation kernel's lattice
// path. Every subset of the six paper indexes (m = 64) is a lattice
// space, which the brute-force agreement suite never reaches (it cuts
// spaces to five configurations). Here the solvers are checked against
// brute force on short sequences, against a scan-path oracle on
// 50-stage sequences, and for schedule identity across thread and
// chunk counts.

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/k_aware_graph.h"
#include "core/relax_stage.h"
#include "core/solver.h"
#include "core/validator.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

constexpr int32_t kAllSubsets = 6;  // max_indexes_per_config: m = 64.

/// The reference optimum: the layered DP on the scan path, whose sum
/// adds in EvaluateScheduleCost's order. k < 0 runs the unconstrained
/// DP.
double ScanOracleCost(const DesignProblem& problem, int64_t k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const WhatIfEngine& what_if = *problem.what_if;
  const CandidateSpace& space = problem.candidates;
  const size_t n = problem.num_segments();
  const size_t m = space.size();
  const CostMatrix matrix = what_if.PrecomputeCostMatrix(space).value();
  const bool bounded = k >= 0;
  const int64_t max_changes =
      static_cast<int64_t>(n) - 1 + (problem.count_initial_change ? 1 : 0);
  const size_t layers =
      bounded ? static_cast<size_t>(std::min(k, max_changes)) + 1 : 1;
  std::vector<double> dist(layers * m, kInf);
  std::vector<double> next(layers * m, kInf);
  for (size_t c = 0; c < m; ++c) {
    const size_t layer =
        bounded && problem.count_initial_change && space[c] != problem.initial
            ? 1
            : 0;
    if (layer >= layers) continue;
    dist[layer * m + c] = what_if.TransitionCost(problem.initial, space[c]) +
                          matrix.Exec(0, c);
  }
  RelaxKernel kernel(matrix, space, layers, bounded, RelaxPath::kScan);
  for (size_t stage = 1; stage < n; ++stage) {
    kernel.RelaxStage(stage, dist.data(), next.data(), nullptr);
    std::swap(dist, next);
  }
  double best = kInf;
  for (size_t l = 0; l < layers; ++l) {
    for (size_t c = 0; c < m; ++c) {
      double cost = dist[l * m + c];
      if (problem.final_config.has_value()) {
        cost += what_if.TransitionCost(space[c], *problem.final_config);
      }
      best = std::min(best, cost);
    }
  }
  return best;
}

/// The contract every lattice solve keeps: the reported cost is
/// EvaluateScheduleCost of the schedule, within 1e-9 relative of the
/// reference, at most k changes.
void ExpectOptimal(const DesignProblem& problem, const DesignSchedule& got,
                   double reference, int64_t k) {
  EXPECT_EQ(got.total_cost, EvaluateScheduleCost(problem, got.configs));
  EXPECT_NEAR(got.total_cost, reference, 1e-9 * reference);
  if (k >= 0) {
    EXPECT_LE(CountChanges(problem, got.configs), k);
    EXPECT_TRUE(ValidateSchedule(problem, got, k).ok());
  }
}

TEST(LatticePropertiesTest, SolveKAwareMatchesBruteForceAtM64) {
  for (size_t stages : {2u, 3u}) {
    auto fixture = MakeRandomProblem(60 + stages, stages, /*block_size=*/8,
                                     kAllSubsets);
    ASSERT_EQ(ChooseRelaxPath(fixture->problem.candidates),
              RelaxPath::kLattice);
    for (int64_t k = 0; k <= 3; ++k) {
      SCOPED_TRACE(::testing::Message() << "n=" << stages << " k=" << k);
      auto brute = SolveBruteForce(fixture->problem, k);
      auto graph = SolveKAware(fixture->problem, k);
      ASSERT_TRUE(brute.ok()) << brute.status().ToString();
      ASSERT_TRUE(graph.ok()) << graph.status().ToString();
      ExpectOptimal(fixture->problem, *graph, brute->total_cost, k);
    }
  }
}

TEST(LatticePropertiesTest, SolveKAwareMatchesScanOracleOnLongSequences) {
  auto fixture = MakeRandomProblem(70, /*num_segments=*/50, /*block_size=*/8,
                                   kAllSubsets);
  DesignProblem& problem = fixture->problem;
  for (bool count_initial : {false, true}) {
    for (bool final_empty : {false, true}) {
      problem.count_initial_change = count_initial;
      problem.final_config.reset();
      if (final_empty) problem.final_config = Configuration::Empty();
      for (int64_t k = 0; k <= 4; ++k) {
        SCOPED_TRACE(::testing::Message()
                     << "count_initial=" << count_initial
                     << " final=" << final_empty << " k=" << k);
        SolveStats stats;
        auto graph = SolveKAware(problem, k, &stats);
        ASSERT_TRUE(graph.ok()) << graph.status().ToString();
        ExpectOptimal(problem, *graph, ScanOracleCost(problem, k), k);
        EXPECT_GT(stats.relaxations, 0);
      }
    }
  }
}

TEST(LatticePropertiesTest, SpaceBoundAndPrunedSpacesMatchScanOracle) {
  auto fixture = MakeRandomProblem(71, /*num_segments=*/30, /*block_size=*/8,
                                   kAllSubsets);
  DesignProblem& problem = fixture->problem;
  // A space bound that admits only the smaller configurations (the
  // universe may shrink with them).
  std::vector<int64_t> sizes;
  for (const Configuration& config : problem.candidates) {
    sizes.push_back(config.SizePages(fixture->model->num_rows()));
  }
  std::vector<int64_t> sorted = sizes;
  std::sort(sorted.begin(), sorted.end());
  problem.space_bound_pages = sorted[sorted.size() * 3 / 4];
  std::vector<ConfigId> fits;
  for (size_t id = 0; id < sizes.size(); ++id) {
    if (sizes[id] <= problem.space_bound_pages) {
      fits.push_back(static_cast<ConfigId>(id));
    }
  }
  problem.candidates = problem.candidates.Subset(fits);
  ASSERT_EQ(ChooseRelaxPath(problem.candidates), RelaxPath::kLattice);
  for (int64_t k : {0, 2, 4}) {
    auto graph = SolveKAware(problem, k);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    ExpectOptimal(problem, *graph, ScanOracleCost(problem, k), k);
  }
  // Dominance pruning hands the solver a Subset of the full space.
  auto full = MakeRandomProblem(71, 30, 8, kAllSubsets);
  SolveOptions options;
  options.k = 3;
  options.prune_dominated = true;
  auto pruned = Solve(full->problem, options);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  ExpectOptimal(full->problem, pruned->schedule,
                ScanOracleCost(full->problem, 3), 3);
}

TEST(LatticePropertiesTest, UnconstrainedMatchesScanOracle) {
  auto fixture = MakeRandomProblem(72, /*num_segments=*/40, /*block_size=*/8,
                                   kAllSubsets);
  for (bool final_empty : {false, true}) {
    fixture->problem.final_config.reset();
    if (final_empty) fixture->problem.final_config = Configuration::Empty();
    SolveStats stats;
    auto schedule = SolveKAware(fixture->problem, std::nullopt, &stats);
    ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
    ExpectOptimal(fixture->problem, *schedule,
                  ScanOracleCost(fixture->problem, -1), -1);
    EXPECT_EQ(stats.nodes_expanded, 40 * 64);
    // One layer per relaxed stage: 64 stay updates, then the lattice's
    // 6 * 2^6 per-bit updates and 64 gathered comparisons.
    EXPECT_EQ(stats.relaxations, 39 * (2 * 64 + 6 * (1 << 6)));
  }
}

TEST(LatticePropertiesTest, IdenticalAcrossThreadsAndChunks) {
  auto fixture = MakeRandomProblem(73, /*num_segments=*/60, /*block_size=*/8,
                                   kAllSubsets);
  SolveOptions options;
  options.k = 4;
  options.num_threads = 1;
  const SolveResult serial = Solve(fixture->problem, options).value();
  EXPECT_EQ(serial.stats.segment_chunks, 0);
  ExpectOptimal(fixture->problem, serial.schedule, serial.schedule.total_cost,
                4);
  for (int threads : {2, 4}) {
    options.num_threads = threads;
    const SolveResult parallel = Solve(fixture->problem, options).value();
    EXPECT_EQ(parallel.schedule.configs, serial.schedule.configs)
        << threads << " threads";
    EXPECT_EQ(parallel.schedule.total_cost, serial.schedule.total_cost);
    EXPECT_EQ(parallel.stats.relaxations, serial.stats.relaxations);
    EXPECT_EQ(parallel.stats.nodes_expanded, serial.stats.nodes_expanded);
  }
  for (int chunks : {2, 5}) {
    options.num_threads = 2;
    options.segmented.num_chunks = chunks;
    const SolveResult chunked = Solve(fixture->problem, options).value();
    EXPECT_EQ(chunked.stats.segment_chunks, chunks);
    ExpectOptimal(fixture->problem, chunked.schedule,
                  serial.schedule.total_cost, 4);
    EXPECT_EQ(chunked.schedule.configs, serial.schedule.configs)
        << chunks << " chunks";
    EXPECT_EQ(chunked.schedule.total_cost, serial.schedule.total_cost);
    EXPECT_EQ(chunked.stats.nodes_expanded, serial.stats.nodes_expanded);
  }
}

}  // namespace
}  // namespace cdpd
