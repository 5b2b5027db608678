// The soft memory budget through the unified Solve() API: every
// method tracks its big allocations (non-zero peak on an unlimited
// solve), an over-budget solve degrades to a valid best-effort
// schedule flagged stats.memory_limit_hit instead of allocating past
// the limit, the overshoot is bounded by one block, and the limited
// path is deterministic. Runs under TSan and ASan in CI.

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/solver.h"
#include "core/validator.h"
#include "workload/standard_workloads.h"
#include "../test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;
using testing_util::ProblemFixture;

const OptimizerMethod kAllMethods[] = {
    OptimizerMethod::kOptimal, OptimizerMethod::kGreedySeq,
    OptimizerMethod::kMerging, OptimizerMethod::kRanking,
    OptimizerMethod::kHybrid,
};

SolveOptions BaseOptions(const ProblemFixture& fixture,
                         OptimizerMethod method, std::optional<int64_t> k) {
  SolveOptions options;
  options.method = method;
  options.k = k;
  options.num_threads = 1;
  if (method == OptimizerMethod::kGreedySeq) {
    options.greedy.candidate_indexes =
        MakePaperCandidateIndexes(fixture.schema);
  }
  return options;
}

TEST(SolverMemoryTest, EveryMethodTracksANonZeroPeakUnlimited) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  for (OptimizerMethod method : kAllMethods) {
    const SolveOptions options = BaseOptions(*fixture, method, 2);
    const SolveResult result = Solve(fixture->problem, options).value();
    EXPECT_GT(result.stats.peak_bytes_total, 0)
        << OptimizerMethodToString(method);
    EXPECT_FALSE(result.stats.memory_limit_hit)
        << OptimizerMethodToString(method);
    EXPECT_FALSE(result.stats.deadline_hit)
        << OptimizerMethodToString(method);
    // The solve is over: everything reserved was released, so the
    // component gauges we copied are peaks, not leaks.
    for (int c = 0; c < kNumMemComponents; ++c) {
      EXPECT_GE(result.stats.component_peak_bytes[c], 0);
    }
  }
}

TEST(SolverMemoryTest, UnconstrainedSolveAlsoTracks) {
  auto fixture = MakeRandomProblem(/*seed=*/5, /*num_segments=*/3,
                                   /*block_size=*/10);
  SolveOptions options;
  options.method = OptimizerMethod::kOptimal;  // No k.
  options.num_threads = 1;
  const SolveResult result = Solve(fixture->problem, options).value();
  EXPECT_GT(result.stats.peak_bytes_total, 0);
  EXPECT_GT(result.stats.component_peak_bytes[static_cast<size_t>(
                MemComponent::kSequenceGraph)],
            0);
}

TEST(SolverMemoryTest, RankingChargesNothingToTheSequenceGraph) {
  // The ranking walks the implicit graph: its state is the ranking
  // queue, and the sequence-graph class holds only the unset-k DP table.
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  const SolveOptions options =
      BaseOptions(*fixture, OptimizerMethod::kRanking, 2);
  const SolveResult result = Solve(fixture->problem, options).value();
  EXPECT_EQ(result.stats.component_peak_bytes[static_cast<size_t>(
                MemComponent::kSequenceGraph)],
            0);
  EXPECT_GT(result.stats.component_peak_bytes[static_cast<size_t>(
                MemComponent::kRankingQueue)],
            0);
}

TEST(SolverMemoryTest, RankingRefusedItsStateStaysWithinTheLimit) {
  // Room for the cost matrix but not for the ranker's per-node state:
  // the ranking must refuse that reservation before allocating and
  // answer with the flagged best static schedule, inside the limit.
  constexpr size_t kStages = 2000;
  auto fixture = MakeRandomProblem(/*seed=*/21, kStages, /*block_size=*/2);
  const size_t m = fixture->problem.candidates.size();
  ASSERT_EQ(m, 7u);
  SolveOptions options = BaseOptions(*fixture, OptimizerMethod::kRanking, 2);
  options.memory_limit_bytes = CostMatrix::EstimateBytes(kStages, m) + 65536;
  const SolveResult result = Solve(fixture->problem, options).value();
  EXPECT_TRUE(result.stats.memory_limit_hit);
  EXPECT_TRUE(result.stats.best_effort);
  EXPECT_TRUE(result.stats.deadline_hit);
  EXPECT_EQ(result.stats.paths_enumerated, 0);
  EXPECT_LE(result.stats.peak_bytes_total, *options.memory_limit_bytes);
  const DesignSchedule fallback =
      BestStaticSchedule(fixture->problem, 2).value();
  EXPECT_EQ(result.schedule.configs, fallback.configs);
  EXPECT_EQ(result.schedule.total_cost, fallback.total_cost);
}

TEST(SolverMemoryTest, TinyLimitDegradesToValidBestEffortEverywhere) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  // Below even the dense cost matrix of this tiny problem: every
  // method must refuse its big allocations and fall back, never
  // error, never allocate past the budget by more than the one
  // (small, unconditional) block that trips the flag.
  constexpr int64_t kLimit = 512;
  constexpr int64_t kOneBlockSlack = 4096;
  for (OptimizerMethod method : kAllMethods) {
    SolveOptions options = BaseOptions(*fixture, method, 2);
    options.memory_limit_bytes = kLimit;
    const Result<SolveResult> solved = Solve(fixture->problem, options);
    ASSERT_TRUE(solved.ok()) << OptimizerMethodToString(method) << ": "
                             << solved.status().ToString();
    const SolveResult& result = *solved;
    EXPECT_TRUE(result.stats.memory_limit_hit)
        << OptimizerMethodToString(method);
    EXPECT_TRUE(result.stats.best_effort) << OptimizerMethodToString(method);
    EXPECT_TRUE(result.stats.deadline_hit)
        << OptimizerMethodToString(method);
    EXPECT_LE(result.stats.peak_bytes_total, kLimit + kOneBlockSlack)
        << OptimizerMethodToString(method);
    // Best-effort is still a *solution*: right length, candidates
    // only, within the change bound, cost consistent with the oracle.
    // GREEDY-SEQ searches its own reduced configuration set, so it is
    // validated against that set (exactly what the advisor does).
    DesignProblem validated = fixture->problem;
    if (!result.reduced_candidates.empty()) {
      validated.candidates = result.reduced_candidates;
    }
    EXPECT_TRUE(ValidateSchedule(validated, result.schedule, options.k).ok())
        << OptimizerMethodToString(method);
  }
}

TEST(SolverMemoryTest, LimitedSolveCostsNoLessThanUnlimited) {
  auto fixture = MakeRandomProblem(/*seed=*/9, /*num_segments=*/4,
                                   /*block_size=*/10);
  SolveOptions unlimited = BaseOptions(*fixture, OptimizerMethod::kOptimal, 2);
  const double optimal_cost =
      Solve(fixture->problem, unlimited).value().schedule.total_cost;
  SolveOptions limited = unlimited;
  limited.memory_limit_bytes = 1024;
  const SolveResult degraded = Solve(fixture->problem, limited).value();
  EXPECT_TRUE(degraded.stats.memory_limit_hit);
  // The fallback is the best static schedule — feasible but never
  // better than the DP optimum.
  EXPECT_GE(degraded.schedule.total_cost, optimal_cost - 1e-9);
}

TEST(SolverMemoryTest, GenerousLimitChangesNothing) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  for (OptimizerMethod method : kAllMethods) {
    SolveOptions plain = BaseOptions(*fixture, method, 2);
    SolveOptions roomy = plain;
    roomy.memory_limit_bytes = int64_t{1} << 40;  // 1 TiB: never binds.
    const SolveResult a = Solve(fixture->problem, plain).value();
    const SolveResult b = Solve(fixture->problem, roomy).value();
    EXPECT_FALSE(b.stats.memory_limit_hit);
    EXPECT_EQ(a.schedule.configs, b.schedule.configs)
        << OptimizerMethodToString(method);
    EXPECT_EQ(a.schedule.total_cost, b.schedule.total_cost)
        << OptimizerMethodToString(method);
  }
}

TEST(SolverMemoryTest, LimitedSolveIsDeterministic) {
  auto fixture = MakeRandomProblem(/*seed=*/13, /*num_segments=*/4,
                                   /*block_size=*/10);
  SolveOptions options = BaseOptions(*fixture, OptimizerMethod::kOptimal, 2);
  options.memory_limit_bytes = 1024;
  const SolveResult first = Solve(fixture->problem, options).value();
  const SolveResult second = Solve(fixture->problem, options).value();
  EXPECT_EQ(first.schedule.configs, second.schedule.configs);
  EXPECT_EQ(first.schedule.total_cost, second.schedule.total_cost);
  EXPECT_EQ(first.stats.memory_limit_hit, second.stats.memory_limit_hit);
}

TEST(SolverMemoryTest, InvalidLimitIsRejected) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/2,
                                   /*block_size=*/5);
  SolveOptions options = BaseOptions(*fixture, OptimizerMethod::kOptimal, 1);
  options.memory_limit_bytes = 0;
  EXPECT_FALSE(Solve(fixture->problem, options).ok());
  options.memory_limit_bytes = -1;
  EXPECT_FALSE(Solve(fixture->problem, options).ok());
}

TEST(SolverMemoryTest, StatsAndMetricsCarryTheMemoryTelemetry) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  MetricsRegistry registry;
  SolveOptions options = BaseOptions(*fixture, OptimizerMethod::kOptimal, 2);
  options.observability.metrics = &registry;
  const SolveResult result = Solve(fixture->problem, options).value();
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.GaugeValue("solver.peak_bytes_total"),
            result.stats.peak_bytes_total);
  EXPECT_EQ(snapshot.GaugeValue("mem.peak_bytes_total"),
            result.stats.peak_bytes_total);
  EXPECT_EQ(snapshot.CounterValue("solver.memory_limit_hit"), 0);
  EXPECT_GE(result.stats.cpu_seconds, 0.0);
#if defined(__linux__)
  EXPECT_GT(snapshot.GaugeValue("process.rss_bytes"), 0);
#endif
  // The JSON view carries the same numbers.
  const std::string json = result.stats.ToJson();
  EXPECT_NE(json.find("\"peak_bytes_total\": " +
                      std::to_string(result.stats.peak_bytes_total)),
            std::string::npos);
  EXPECT_NE(json.find("\"memory_limit_hit\": false"), std::string::npos);
}

TEST(SolverMemoryTest, MemoryLimitHitRoundTripsThroughMetrics) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  MetricsRegistry registry;
  SolveOptions options = BaseOptions(*fixture, OptimizerMethod::kOptimal, 2);
  options.observability.metrics = &registry;
  options.memory_limit_bytes = 1024;
  const SolveResult result = Solve(fixture->problem, options).value();
  ASSERT_TRUE(result.stats.memory_limit_hit);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_GE(snapshot.CounterValue("solver.memory_limit_hit"), 1);
  EXPECT_GE(snapshot.CounterValue("mem.limit_exceeded"), 1);
  const SolveStats back = SolveStats::FromSnapshot(snapshot);
  EXPECT_TRUE(back.memory_limit_hit);
  EXPECT_EQ(back.peak_bytes_total, result.stats.peak_bytes_total);
}

}  // namespace
}  // namespace cdpd
