// Scaling the instance dimension: n up to 10^6 statements over the
// first 8 or 12 configurations of the paper's two-index candidate
// space, solved by the one-pass k-aware DP. Each case solves the k = 4
// constrained problem end to end (workload generation excluded from
// the timing) with chunking in auto mode (one pass, so the chunks
// column reads 0) and one shared worker pool, under a soft memory
// budget. Dominance pruning stays off: it drops no configuration of
// these spaces, so it would only add its probes to every timed solve.
//
// One solve takes well under bench_compare's 5 ms noise floor at small
// n, so each case times a fixed number of back-to-back solves covering
// about 10^7 statements in all (1000 at n10k, 100 at n100k, 10 at n1M)
// and reports their total wall time and the schema-v3
// statements_per_sec = solves x n / wall column bench_compare gates
// on.
//
// Two last cases take the shape advisor_server re-solves on every
// RECOMMEND after a slide of a 10^6-statement window (the perfbench
// slide_1m workload): 10k stages of 100 W1 statements, the paper's 7
// one-index configurations, k = 2. Each of their rounds is one Solve
// plus the ValidateSchedule pass the service runs on the answer, so
// the per-stage work around the DP (precompute, schedule build,
// validation) is timed with it. slide_1m_m7_k2 solves in one block;
// slide_1m_m7_k2_chunks8 in 8 checkpoint blocks (RECOMMEND chunks=8),
// the memory-bounded path, which re-relaxes 7/8 of the stages during
// the backtrack.

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/solver.h"
#include "core/validator.h"
#include "cost/what_if.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace {

/// The first `m` configurations of the paper's candidate space widened
/// to two indexes per configuration (1 empty + 6 singles + pairs in
/// enumeration order) — deterministic, and always containing the empty
/// initial configuration.
std::vector<Configuration> MakeCandidates(const Schema& schema,
                                          int64_t num_rows, size_t m) {
  using namespace bench_util;
  ConfigEnumOptions enum_options;
  enum_options.max_indexes_per_config = 2;
  enum_options.num_rows = num_rows;
  std::vector<Configuration> configs =
      EnumerateConfigurations(MakePaperCandidateIndexes(schema),
                              enum_options)
          .value();
  if (configs.size() > m) configs.resize(m);
  return configs;
}

void Run(bench_util::BenchReport* report) {
  using namespace bench_util;
  auto model = MakePaperCostModel();
  const Schema schema = MakePaperSchema();

  PrintHeader("Scaling: n statements x m candidate configurations, k = 4");
  std::printf("%12s %4s %8s %6s %6s %12s %14s %8s\n", "n", "m", "stages",
              "solves", "chunks", "wall(s)", "stmts/sec", "flags");
  const int threads = ThreadPool::DefaultThreadCount();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  // The paper's W1 has 30 mix blocks; scaling the per-block size scales
  // the statement count while keeping the phase structure (and thus the
  // optimal change points) intact.
  struct ScalePoint {
    const char* label;
    size_t block_size;  // Per mix block; n = 30 * block_size.
    int solves;         // Back-to-back solves timed together.
  };
  const ScalePoint points[] = {
      {"n10k", 334, 1000},    // ~10k statements.
      {"n100k", 3'334, 100},  // ~100k statements.
      {"n1M", 33'334, 10},    // ~1M statements.
  };
  for (const ScalePoint& point : points) {
    WorkloadGenerator gen(schema, kPaperDomain, kSeed);
    const Workload workload =
        MakeScaledPaperWorkload("W1", point.block_size, &gen).value();
    const size_t n = workload.size();
    // One solver stage per 500 statements, the advisor default.
    const std::vector<Segment> segments = SegmentFixed(n, 500);

    for (const size_t m : {size_t{8}, size_t{12}}) {
      const std::vector<Configuration> candidates =
          MakeCandidates(schema, model->num_rows(), m);
      WhatIfEngine what_if(model.get(), workload.statements, segments);
      DesignProblem problem;
      problem.what_if = &what_if;
      problem.candidates = candidates;
      problem.initial = Configuration::Empty();

      SolveOptions options;
      options.method = OptimizerMethod::kOptimal;
      options.k = 4;
      options.num_threads = threads;
      options.pool = pool.get();
      // 1 GiB soft budget: the n = 1M case must fit, or it degrades
      // visibly (the flags column shows mem/deadline fallbacks).
      options.memory_limit_bytes = int64_t{1} << 30;
      AttachObservability(&options);

      // Counters add over the solves (SolveStats::Accumulate), so the
      // case's relaxations_per_sec stays total work over total wall.
      SolveStats stats;
      Status failure = Status::OK();
      Stopwatch watch;
      for (int solve = 0; solve < point.solves && failure.ok(); ++solve) {
        auto result = Solve(problem, options);
        if (result.ok()) {
          stats.Accumulate(result->stats);
        } else {
          failure = result.status();
        }
      }
      const double wall = watch.ElapsedSeconds();
      if (!failure.ok()) {
        std::printf("%12zu %4zu solver failed: %s\n", n, m,
                    failure.ToString().c_str());
        continue;
      }
      const int64_t statements = static_cast<int64_t>(n) * point.solves;
      const std::string name =
          std::string(point.label) + "_m" + std::to_string(m);
      report->AddCase(name, wall, stats, statements);
      std::printf("%12zu %4zu %8zu %6d %6lld %12.3f %14.0f %8s\n", n, m,
                  segments.size(), point.solves,
                  static_cast<long long>(stats.segment_chunks), wall,
                  static_cast<double>(statements) / wall,
                  stats.memory_limit_hit  ? "mem"
                  : stats.deadline_hit    ? "deadline"
                  : stats.best_effort     ? "fallback"
                                          : "ok");
    }
  }

  PrintHeader("slide_1m re-solve: 10k stages x 100 statements, m = 7, "
              "k = 2, Solve + ValidateSchedule");
  std::printf("%12s %4s %8s %6s %6s %12s %14s\n", "n", "m", "stages",
              "rounds", "chunks", "wall(s)", "stmts/sec");
  constexpr size_t kWindow = 1'000'000;
  constexpr int kRounds = 10;
  WorkloadGenerator gen(schema, kPaperDomain, kSeed);
  const Workload workload =
      MakeScaledPaperWorkload("W1", (kWindow + 29) / 30, &gen).value();
  const std::span<const BoundStatement> window(workload.statements.data(),
                                               kWindow);
  WhatIfEngine what_if(model.get(), window, SegmentFixed(kWindow, 100));
  ConfigEnumOptions enum_options;
  enum_options.max_indexes_per_config = 1;
  enum_options.num_rows = model->num_rows();
  DesignProblem problem;
  problem.what_if = &what_if;
  problem.candidates =
      EnumerateConfigurations(MakePaperCandidateIndexes(schema), enum_options)
          .value();
  problem.initial = Configuration::Empty();
  for (const int chunks : {1, 8}) {
    SolveOptions options;
    options.method = OptimizerMethod::kOptimal;
    options.k = 2;
    options.num_threads = threads;
    options.pool = pool.get();
    options.segmented.num_chunks = chunks;
    AttachObservability(&options);
    SolveStats stats;
    Status failure = Status::OK();
    Stopwatch watch;
    for (int round = 0; round < kRounds && failure.ok(); ++round) {
      auto result = Solve(problem, options);
      if (!result.ok()) {
        failure = result.status();
        break;
      }
      failure = ValidateSchedule(problem, result->schedule, options.k);
      stats.Accumulate(result->stats);
    }
    const double wall = watch.ElapsedSeconds();
    if (!failure.ok()) {
      std::printf("slide_1m re-solve failed: %s\n",
                  failure.ToString().c_str());
      return;
    }
    const std::string name =
        chunks == 1 ? std::string("slide_1m_m7_k2")
                    : "slide_1m_m7_k2_chunks" + std::to_string(chunks);
    report->AddCase(name, wall, stats,
                    static_cast<int64_t>(kWindow) * kRounds);
    std::printf("%12zu %4zu %8zu %6d %6lld %12.3f %14.0f\n", kWindow,
                problem.candidates.size(), what_if.num_segments(), kRounds,
                static_cast<long long>(stats.segment_chunks), wall,
                static_cast<double>(kWindow) * kRounds / wall);
  }
}

}  // namespace
}  // namespace cdpd

int main() {
  cdpd::bench_util::BenchReport report("scale_solver");
  cdpd::Run(&report);
  report.Write();
  cdpd::bench_util::WriteObservabilityArtifacts();
  return 0;
}
