// Reproduces Figures 1 and 2: the sequence graph and the k-aware
// sequence graph for a workload of n = 3 statements and one candidate
// index (two configurations), including the node/edge inventories the
// paper's complexity analysis is based on, and a DOT rendering of the
// Figure 1 graph. Then measures the k-aware DP's throughput at m = 64,
// 256 and 1024 candidate configurations.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "advisor/config_enumeration.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/k_aware_graph.h"
#include "core/relax_stage.h"
#include "core/sequence_graph.h"
#include "core/solver.h"
#include "cost/what_if.h"
#include "workload/generator.h"

namespace cdpd {
namespace {

void Run(bench_util::BenchReport* report) {
  using bench_util::PrintHeader;
  const Schema schema = MakePaperSchema();
  CostModel model(schema, bench_util::kPaperRows, bench_util::kPaperDomain);

  // Three point queries on column a; one candidate index IX = I(a).
  WorkloadGenerator gen(schema, bench_util::kPaperDomain, bench_util::kSeed);
  std::vector<BoundStatement> statements =
      gen.GenerateFromMix(MakePaperQueryMixes()[0], 3);
  const std::vector<Segment> segments = SegmentFixed(3, 1);
  WhatIfEngine what_if(&model, statements, segments);

  DesignProblem problem;
  problem.what_if = &what_if;
  problem.candidates = {Configuration::Empty(),
                        Configuration({IndexDef({0})})};
  problem.initial = Configuration::Empty();

  PrintHeader(
      "Figure 1: sequence graph, n = 3 statements, one candidate index");
  auto graph = SequenceGraph::Build(problem).value();
  const int64_t n = 3;
  const int64_t configs = 2;  // 2^m with m = 1.
  std::printf("nodes: %lld   (formula n*2^m + 2          = %lld)\n",
              static_cast<long long>(graph.num_nodes()),
              static_cast<long long>(n * configs + 2));
  std::printf("edges: %lld   (formula (n-1)*2^2m + 2^m+1 = %lld)\n",
              static_cast<long long>(graph.num_edges()),
              static_cast<long long>((n - 1) * configs * configs +
                                     2 * configs));
  std::printf("\nDOT rendering (edge labels = TRANS + EXEC weights):\n%s\n",
              graph.ToDot().c_str());

  PrintHeader("Figure 2: (k = 2)-aware sequence graph, same scenario");
  const KAwareGraphSize size = ComputeKAwareGraphSize(n, configs, /*k=*/2);
  std::printf("layers: 3 (no change / one change / two changes)\n");
  std::printf("nodes:  %lld   (O(k n 2^m))\n",
              static_cast<long long>(size.nodes));
  std::printf("edges:  %lld   (O(k n 2^2m))\n",
              static_cast<long long>(size.edges));

  SolveOptions solve_options;
  solve_options.method = OptimizerMethod::kOptimal;
  solve_options.k = 2;
  bench_util::AttachObservability(&solve_options);
  const SolveResult result = Solve(problem, solve_options).value();
  report->AddCase("kaware_n3_k2", result.stats.wall_seconds, result.stats);
  const DesignSchedule& schedule = result.schedule;
  std::printf("\nshortest path through the k-aware graph (k = 2):\n");
  for (size_t i = 0; i < schedule.configs.size(); ++i) {
    std::printf("  S%zu executed under %s\n", i + 1,
                schedule.configs[i].ToString(schema).c_str());
  }
  std::printf("sequence execution cost: %.1f, DP states: %lld, "
              "relaxations: %lld\n",
              schedule.total_cost,
              static_cast<long long>(result.stats.nodes_expanded),
              static_cast<long long>(result.stats.relaxations));
  bench_util::PrintRule();
}

/// The first `count` one- and two-column indexes over the paper
/// schema: the four single columns, then ordered column pairs.
std::vector<IndexDef> OneAndTwoColumnIndexes(const Schema& schema,
                                             size_t count) {
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  std::vector<IndexDef> out;
  for (const std::string& a : names) {
    out.push_back(IndexDef::FromColumnNames(schema, {a}).value());
  }
  for (const std::string& a : names) {
    for (const std::string& b : names) {
      if (a == b) continue;
      out.push_back(IndexDef::FromColumnNames(schema, {a, b}).value());
    }
  }
  out.resize(count);
  return out;
}

/// DP cells (stages x layers x m) the relaxation kernel on `path`
/// settles per second over stages [1, stages) of `matrix`: the kernel
/// alone, without precompute or per-stage instrumentation.
double DpCellsPerSec(const CostMatrix& matrix, const CandidateSpace& space,
                     size_t layers, RelaxPath path, size_t stages) {
  const size_t m = space.size();
  std::vector<double> dist(layers * m, 0.0);
  std::vector<double> next(layers * m);
  std::vector<DpParent> parent(layers * m);
  RelaxKernel kernel(matrix, space, layers, /*count_changes=*/true, path);
  const Stopwatch watch;
  for (size_t stage = 1; stage < stages; ++stage) {
    kernel.RelaxStage(stage, dist.data(), next.data(), parent.data());
    std::swap(dist, next);
  }
  const double seconds = watch.ElapsedSeconds();
  return seconds > 0.0 ? static_cast<double>((stages - 1) * layers * m) /
                             seconds
                       : 0.0;
}

/// The relaxation-throughput measurement behind the v3
/// relaxations_per_sec column: k-aware DPs large enough to outlast
/// timer noise (240 stages, k = 4) over every subset of 6, 8 and 10
/// candidate indexes (m = 64, 256, 1024 — all lattice-path spaces).
/// Next to relaxations/s the table prints dp_cells_per_sec of the
/// kernel alone, on the lattice path the solver takes and on the scan
/// oracle (timed over a stage prefix where a full scan would be slow).
void RunDpThroughput(bench_util::BenchReport* report) {
  using bench_util::PrintHeader;
  const Schema schema = MakePaperSchema();
  CostModel model(schema, bench_util::kPaperRows, bench_util::kPaperDomain);

  constexpr size_t kSegments = 240;
  constexpr size_t kBlock = 2;
  constexpr int64_t kK = 4;
  WorkloadGenerator gen(schema, bench_util::kPaperDomain,
                        bench_util::kSeed + 1);
  const std::vector<QueryMix> mixes = MakePaperQueryMixes();
  std::vector<int> blocks;
  for (size_t i = 0; i < kSegments; ++i) {
    blocks.push_back(static_cast<int>(i % mixes.size()));
  }
  Workload workload =
      gen.GenerateBlocked(mixes, blocks, kBlock, DmlMixOptions{}).value();
  const std::vector<Segment> segments =
      SegmentFixed(workload.statements.size(), kBlock);

  PrintHeader("k-aware DP throughput: n = 240 stages, k = 4, all subsets "
              "of u indexes");
  std::printf("%6s %4s %10s %12s %12s %17s %17s %8s\n", "m", "u", "wall ms",
              "relaxations", "relax/s", "dp_cells_per_sec", "scan (same)",
              "ratio");
  for (size_t u : {6u, 8u, 10u}) {
    ConfigEnumOptions enum_options;
    enum_options.max_indexes_per_config = static_cast<int32_t>(u);
    enum_options.num_rows = bench_util::kPaperRows;
    const std::vector<IndexDef> indexes =
        u == 6 ? MakePaperCandidateIndexes(schema)
               : OneAndTwoColumnIndexes(schema, u);
    WhatIfEngine what_if(&model, workload.statements, segments);
    DesignProblem problem;
    problem.what_if = &what_if;
    problem.candidates = EnumerateConfigurations(indexes, enum_options).value();
    problem.initial = Configuration::Empty();
    const size_t m = problem.candidates.size();

    SolveOptions solve_options;
    solve_options.method = OptimizerMethod::kOptimal;
    solve_options.k = kK;
    bench_util::AttachObservability(&solve_options);
    const std::string name = "kaware_dp_n240_m" + std::to_string(m) + "_k4";
    const SolveResult solved = Solve(problem, solve_options).value();
    report->AddCase(name, solved.stats.wall_seconds, solved.stats);

    // The kernel alone, over the same matrix the solve priced.
    const CostMatrix matrix =
        what_if.PrecomputeCostMatrix(problem.candidates).value();
    const size_t layers = static_cast<size_t>(kK) + 1;
    const RelaxPath path = ChooseRelaxPath(problem.candidates);
    const double cells =
        DpCellsPerSec(matrix, problem.candidates, layers, path, kSegments);
    const size_t scan_stages = std::min<size_t>(
        kSegments, std::max<size_t>(2, (size_t{1} << 24) / (m * m)));
    const double scan_cells = DpCellsPerSec(
        matrix, problem.candidates, layers, RelaxPath::kScan, scan_stages);
    std::printf("%6zu %4zu %10.2f %12lld %12.3g %17.3g %17.3g %7.1fx\n", m,
                u, solved.stats.wall_seconds * 1e3,
                static_cast<long long>(solved.stats.relaxations),
                solved.stats.wall_seconds > 0.0
                    ? static_cast<double>(solved.stats.relaxations) /
                          solved.stats.wall_seconds
                    : 0.0,
                cells, scan_cells, scan_cells > 0.0 ? cells / scan_cells : 0.0);
  }
  bench_util::PrintRule();
}

}  // namespace
}  // namespace cdpd

int main() {
  cdpd::bench_util::BenchReport report("fig1_fig2_graphs");
  cdpd::Run(&report);
  cdpd::RunDpThroughput(&report);
  report.Write();
  cdpd::bench_util::WriteObservabilityArtifacts();
  return 0;
}
