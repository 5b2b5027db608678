// Scaling the instance dimension: n up to 10^6 statements and m up to
// 12 candidate configurations, the regime dominance pruning and the
// one-pass k-aware DP target. Each case solves the k = 4 constrained
// problem end to end (workload generation excluded from the timing)
// with pruning on, chunking in auto mode (one pass, so the chunks
// column reads 0), and a
// warm-capable persistent cost cache, under a soft memory budget —
// the configuration a long-running advisor would use. Reports the
// schema-v3 statements_per_sec throughput column bench_compare gates
// on.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/solver.h"
#include "cost/cost_cache.h"
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
  std::printf("%12s %4s %8s %6s %12s %14s %10s %8s\n", "n", "m", "stages",
              "chunks", "wall(s)", "stmts/sec", "pruned", "flags");

  // The paper's W1 has 30 mix blocks; scaling the per-block size scales
  // the statement count while keeping the phase structure (and thus the
  // optimal change points) intact.
  struct ScalePoint {
    const char* label;
    size_t block_size;  // Per mix block; n = 30 * block_size.
  };
  const ScalePoint points[] = {
      {"n10k", 334},     // ~10k statements.
      {"n100k", 3'334},  // ~100k statements.
      {"n1M", 33'334},   // ~1M statements.
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

      CostCache cache;
      SolveOptions options;
      options.method = OptimizerMethod::kOptimal;
      options.k = 4;
      options.prune_dominated = true;
      options.cost_cache = &cache;
      // 1 GiB soft budget: the n = 1M case must fit, or it degrades
      // visibly (the flags column shows mem/deadline fallbacks).
      options.memory_limit_bytes = int64_t{1} << 30;
      AttachObservability(&options);

      Stopwatch watch;
      auto result = Solve(problem, options);
      const double wall = watch.ElapsedSeconds();
      if (!result.ok()) {
        std::printf("%12zu %4zu solver failed: %s\n", n, m,
                    result.status().ToString().c_str());
        continue;
      }
      const SolveStats& stats = result->stats;
      const std::string name =
          std::string(point.label) + "_m" + std::to_string(m);
      report->AddCase(name, wall, stats, static_cast<int64_t>(n));
      std::printf("%12zu %4zu %8zu %6lld %12.3f %14.0f %10lld %8s\n", n, m,
                  segments.size(),
                  static_cast<long long>(stats.segment_chunks), wall,
                  static_cast<double>(n) / wall,
                  static_cast<long long>(stats.pruned_configs),
                  stats.memory_limit_hit  ? "mem"
                  : stats.deadline_hit    ? "deadline"
                  : stats.best_effort     ? "fallback"
                                          : "ok");
    }
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
