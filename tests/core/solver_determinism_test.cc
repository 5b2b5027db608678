// Determinism across thread counts: every method must produce a
// byte-identical schedule, exactly equal total cost, and the same
// what-if costing count whether Solve() runs serially or on 8 workers.
// This is the contract that makes the parallel what-if evaluation
// safe to enable by default.

#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "core/solver.h"
#include "test_util.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;
using testing_util::ProblemFixture;

/// Solves `method` with `threads` workers on a FRESH fixture (zero
/// costings so far), so costing counts are comparable across runs.
/// `metrics`/`tracer` attach observability sinks, which must never
/// change the outcome.
SolveResult SolveFresh(uint64_t seed, OptimizerMethod method,
                       std::optional<int64_t> k, int threads,
                       MetricsRegistry* metrics = nullptr,
                       Tracer* tracer = nullptr) {
  std::unique_ptr<ProblemFixture> fixture = MakeRandomProblem(seed, 8, 12);
  SolveOptions options;
  options.method = method;
  options.k = k;
  options.num_threads = threads;
  options.observability.metrics = metrics;
  options.observability.tracer = tracer;
  if (method == OptimizerMethod::kGreedySeq) {
    options.greedy.candidate_indexes =
        MakePaperCandidateIndexes(fixture->schema);
    options.greedy.max_indexes_per_config = 1;
  }
  auto result = Solve(fixture->problem, options);
  EXPECT_TRUE(result.ok())
      << OptimizerMethodToString(method) << ": " << result.status();
  return std::move(result).value();
}

class SolverDeterminismTest
    : public ::testing::TestWithParam<OptimizerMethod> {};

TEST_P(SolverDeterminismTest, SerialAndEightThreadsAgreeExactly) {
  const OptimizerMethod method = GetParam();
  const std::optional<int64_t> bounds[] = {std::nullopt, 0, 2, 4};
  for (const std::optional<int64_t>& k : bounds) {
    const int64_t k_label = k.value_or(-1);  // -1 = unconstrained, log only.
    const SolveResult serial = SolveFresh(301, method, k, /*threads=*/1);
    const SolveResult parallel = SolveFresh(301, method, k, /*threads=*/8);
    // Byte-identical schedules and *exact* (not approximate) costs:
    // the parallel sweeps must take the same argmin decisions.
    EXPECT_EQ(serial.schedule.configs, parallel.schedule.configs)
        << OptimizerMethodToString(method) << " k=" << k_label;
    EXPECT_EQ(serial.schedule.total_cost, parallel.schedule.total_cost)
        << OptimizerMethodToString(method) << " k=" << k_label;
    // Exactly-once costing makes the work counter thread-invariant.
    EXPECT_EQ(serial.stats.costings, parallel.stats.costings)
        << OptimizerMethodToString(method) << " k=" << k_label;
    EXPECT_EQ(serial.stats.nodes_expanded, parallel.stats.nodes_expanded)
        << OptimizerMethodToString(method) << " k=" << k_label;
    EXPECT_EQ(serial.stats.threads_used, 1);
    EXPECT_EQ(parallel.stats.threads_used, 8);
  }
}

TEST_P(SolverDeterminismTest, TracingAndMetricsDoNotPerturbResults) {
  const OptimizerMethod method = GetParam();
  const SolveResult plain = SolveFresh(303, method, 2, /*threads=*/4);
  MetricsRegistry registry;
  Tracer tracer;
  const SolveResult traced =
      SolveFresh(303, method, 2, /*threads=*/4, &registry, &tracer);
  EXPECT_EQ(plain.schedule.configs, traced.schedule.configs)
      << OptimizerMethodToString(method);
  EXPECT_EQ(plain.schedule.total_cost, traced.schedule.total_cost)
      << OptimizerMethodToString(method);
  EXPECT_EQ(plain.stats.costings, traced.stats.costings)
      << OptimizerMethodToString(method);
  EXPECT_EQ(plain.stats.nodes_expanded, traced.stats.nodes_expanded)
      << OptimizerMethodToString(method);
  // The instrumented run really recorded spans and published the
  // typed snapshot whose counters match the stats it returned.
  EXPECT_GT(tracer.num_events(), 0u) << OptimizerMethodToString(method);
  EXPECT_EQ(traced.tracer, &tracer);
  const SolveStats from_registry =
      SolveStats::FromSnapshot(registry.Snapshot());
  EXPECT_EQ(from_registry.costings, traced.stats.costings);
  EXPECT_EQ(from_registry.cost_cache_hits, traced.stats.cost_cache_hits);
  EXPECT_EQ(from_registry.nodes_expanded, traced.stats.nodes_expanded);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, SolverDeterminismTest,
    ::testing::Values(OptimizerMethod::kOptimal,
                      OptimizerMethod::kGreedySeq,
                      OptimizerMethod::kMerging, OptimizerMethod::kRanking,
                      OptimizerMethod::kHybrid),
    [](const ::testing::TestParamInfo<OptimizerMethod>& info) {
      std::string name(OptimizerMethodToString(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(SolverDeterminismTest2, CdpdThreadsEnvironmentPathAgrees) {
  // num_threads = 0 resolves through CDPD_THREADS; pin it to 2 and
  // compare against an explicit serial run.
  const SolveResult serial =
      SolveFresh(302, OptimizerMethod::kOptimal, 2, /*threads=*/1);
  ASSERT_EQ(setenv("CDPD_THREADS", "2", /*overwrite=*/1), 0);
  const SolveResult env_run =
      SolveFresh(302, OptimizerMethod::kOptimal, 2, /*threads=*/0);
  ASSERT_EQ(unsetenv("CDPD_THREADS"), 0);
  EXPECT_EQ(env_run.stats.threads_used, 2);
  EXPECT_EQ(serial.schedule.configs, env_run.schedule.configs);
  EXPECT_EQ(serial.schedule.total_cost, env_run.schedule.total_cost);
  EXPECT_EQ(serial.stats.costings, env_run.stats.costings);
}

}  // namespace
}  // namespace cdpd
