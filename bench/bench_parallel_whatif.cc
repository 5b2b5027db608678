// Parallel what-if evaluation: wall-time scaling of the unified
// Solve() entry point with the worker thread count, and the
// determinism guarantee that makes the parallelism free — identical
// schedules, costs, and what-if costing counts at every thread count.
//
// The problem is sized so the cost-matrix precompute dominates: W1 x 2
// (60 blocks) over the 2-index configuration space (22 configurations
// from the six paper indexes), solved with the k-aware graph. On a
// multi-core machine the 4-thread row should show >= 2x speedup over
// the serial row; on a single-core machine every row degenerates to
// the serial path and the table only demonstrates determinism. The
// 22-configuration space (u = 6 indexes, 6 * 2^6 < 22 * 21) takes the
// relaxation kernel's subset-lattice path, so the identity check also
// covers that path.
//
// Thread counts are requested explicitly via SolveOptions::num_threads,
// so the sweep is independent of CDPD_THREADS.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "advisor/config_enumeration.h"
#include "common/budget.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "core/solver.h"
#include "cost/what_if.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace {

struct ProblemFixture {
  std::unique_ptr<CostModel> model;
  Workload workload;
  std::vector<Segment> segments;
  std::unique_ptr<WhatIfEngine> what_if;
  DesignProblem problem;
};

std::unique_ptr<ProblemFixture> MakeFixture() {
  auto f = std::make_unique<ProblemFixture>();
  f->model = bench_util::MakePaperCostModel();
  const Schema schema = MakePaperSchema();
  WorkloadGenerator gen(schema, bench_util::kPaperDomain,
                        bench_util::kSeed);
  Workload day1 = MakePaperWorkload("W1", &gen).value();
  Workload day2 = MakePaperWorkload("W1", &gen).value();
  f->workload = std::move(day1);
  f->workload.statements.insert(f->workload.statements.end(),
                                day2.statements.begin(),
                                day2.statements.end());
  f->segments = SegmentFixed(f->workload.size(), kPaperBlockSize);
  f->what_if = std::make_unique<WhatIfEngine>(
      f->model.get(), f->workload.statements, f->segments);
  ConfigEnumOptions enum_options;
  // Two indexes per configuration: 22 configurations instead of 7, so
  // the n x m what-if matrix is big enough to be worth parallelizing.
  enum_options.max_indexes_per_config = 2;
  enum_options.num_rows = f->model->num_rows();
  f->problem.what_if = f->what_if.get();
  f->problem.candidates =
      EnumerateConfigurations(MakePaperCandidateIndexes(schema),
                              enum_options)
          .value();
  f->problem.initial = Configuration::Empty();
  f->problem.final_config = Configuration::Empty();
  return f;
}

struct Run {
  int threads = 1;
  double seconds = 0;
  SolveResult result;
};

/// Solves with `threads` workers on a FRESH what-if engine (no cost
/// cache), so every run pays the full precompute and the wall times
/// are comparable. `metrics`/`tracer` attach observability sinks to
/// the solve (the determinism rows below prove they only observe);
/// `deadline_ms >= 0` attaches a wall-clock budget.
Run SolveWith(int threads, MetricsRegistry* metrics = nullptr,
              Tracer* tracer = nullptr, int64_t deadline_ms = -1) {
  std::unique_ptr<ProblemFixture> fixture = MakeFixture();
  SolveOptions options;
  options.method = OptimizerMethod::kOptimal;
  options.k = 4;
  options.num_threads = threads;
  bench_util::AttachObservability(&options);
  if (metrics != nullptr) options.observability.metrics = metrics;
  if (tracer != nullptr) options.observability.tracer = tracer;
  if (deadline_ms >= 0) options.deadline = std::chrono::milliseconds(deadline_ms);
  Run run;
  run.threads = threads;
  auto solved = Solve(fixture->problem, options);
  if (!solved.ok()) {
    std::fprintf(stderr, "solve failed: %s\n",
                 solved.status().ToString().c_str());
    std::exit(1);
  }
  run.result = std::move(solved).value();
  run.seconds = run.result.stats.wall_seconds;
  return run;
}

void Report(bench_util::BenchReport* report) {
  using bench_util::PrintHeader;
  using bench_util::PrintRule;
  PrintHeader(
      "Parallel what-if evaluation: Solve(k-aware, k = 4) wall time "
      "vs worker threads");
  std::printf("hardware concurrency: %d; W1 x 2 (60 blocks), 22 "
              "configurations\n\n",
              ThreadPool::DefaultThreadCount());

  const Run serial = SolveWith(1);
  report->AddCase("solve_threads1", serial.seconds, serial.result.stats);
  std::printf("%8s %12s %10s %12s %12s %10s\n", "threads", "wall ms",
              "speedup", "costings", "cc hits", "same?");
  std::printf("%8d %12.2f %10s %12lld %12lld %10s\n", serial.threads,
              serial.seconds * 1e3, "1.00x",
              static_cast<long long>(serial.result.stats.costings),
              static_cast<long long>(serial.result.stats.cost_cache_hits),
              "(base)");

  bool all_identical = true;
  for (int threads : {2, 4, 8}) {
    const Run run = SolveWith(threads);
    report->AddCase("solve_threads" + std::to_string(threads), run.seconds,
                    run.result.stats);
    const bool same_schedule =
        run.result.schedule.configs == serial.result.schedule.configs &&
        run.result.schedule.total_cost == serial.result.schedule.total_cost &&
        run.result.stats.costings == serial.result.stats.costings;
    all_identical = all_identical && same_schedule;
    std::printf("%8d %12.2f %9.2fx %12lld %12lld %10s\n", run.threads,
                run.seconds * 1e3, serial.seconds / run.seconds,
                static_cast<long long>(run.result.stats.costings),
                static_cast<long long>(run.result.stats.cost_cache_hits),
                same_schedule ? "yes" : "NO");
  }
  // Observability must only observe: the same solve with a tracer and
  // a metrics registry attached has to produce the identical schedule,
  // cost, and costing count.
  MetricsRegistry registry;
  Tracer tracer;
  const Run traced = SolveWith(4, &registry, &tracer);
  const bool traced_same =
      traced.result.schedule.configs == serial.result.schedule.configs &&
      traced.result.schedule.total_cost ==
          serial.result.schedule.total_cost &&
      traced.result.stats.costings == serial.result.stats.costings;
  all_identical = all_identical && traced_same;
  std::printf("with tracing + metrics on (4 threads): %zu spans, "
              "schedule %s\n",
              tracer.num_events(), traced_same ? "identical" : "DIVERGED");
  // A deadline that never fires must be invisible: same schedule, same
  // cost, same costing count, and the deadline_hit flag stays clear.
  const Run budgeted =
      SolveWith(4, nullptr, nullptr, /*deadline_ms=*/600'000);
  const bool budgeted_same =
      budgeted.result.schedule.configs == serial.result.schedule.configs &&
      budgeted.result.schedule.total_cost ==
          serial.result.schedule.total_cost &&
      budgeted.result.stats.costings == serial.result.stats.costings &&
      !budgeted.result.stats.deadline_hit;
  all_identical = all_identical && budgeted_same;
  std::printf("with a 600 s deadline (4 threads): schedule %s, "
              "deadline_hit %s\n",
              budgeted_same ? "identical" : "DIVERGED",
              budgeted.result.stats.deadline_hit ? "SET" : "clear");
  PrintRule();
  std::printf("schedule, total cost, and costing count %s across all "
              "thread counts and instrumentation settings\n",
              all_identical ? "are byte-identical" : "DIVERGED");
  PrintRule();
  if (!all_identical) std::exit(1);
}

/// The zero-overhead contract of the observability layer and the
/// budget poll: a disabled trace-span site (null tracer), a disabled
/// metric site (null counter), a disabled log site (null logger), a
/// disabled progress site (null callback), and an unlimited-budget
/// poll (null Budget) must all compile down to pointer tests. Times
/// millions of such sites and fails the bench when the per-site cost
/// exceeds a bound generous enough for any CI machine or sanitizer
/// build — a regression here means instrumentation or deadline
/// checking leaked real work onto the disabled path.
void AssertDisabledInstrumentationIsFree(bench_util::BenchReport* report) {
  using bench_util::PrintRule;
  constexpr int64_t kIters = 10'000'000;
  Tracer* tracer = nullptr;
  Counter* counter = nullptr;
  const Budget* budget = nullptr;
  Logger* logger = nullptr;
  const ProgressFn* progress = nullptr;
  // Launder the nulls so the optimizer cannot fold the checks away;
  // what remains is exactly what an uninstrumented hot loop executes.
  asm volatile("" : "+r"(tracer), "+r"(counter), "+r"(budget), "+r"(logger),
               "+r"(progress));
  int64_t sink = 0;
  Stopwatch watch;
  for (int64_t i = 0; i < kIters; ++i) {
    CDPD_TRACE_SPAN(tracer, "bench.noop", "bench", i);
    if (counter != nullptr) counter->Add(1);
    if (BudgetExpired(budget)) sink += 1;
    CDPD_LOG(logger, LogLevel::kInfo, "bench.noop", LogField("i", i));
    ReportProgress(progress, "bench.noop",
                   static_cast<double>(i) / kIters);
    sink += i;
    asm volatile("" : "+r"(sink));
  }
  const double ns_per_site = watch.ElapsedSeconds() * 1e9 / kIters;
  constexpr double kBoundNs = 100.0;
  std::printf("disabled instrumentation: %.2f ns per span+counter+log+"
              "progress site (bound %.0f ns) — %s\n",
              ns_per_site, kBoundNs, ns_per_site < kBoundNs ? "ok" : "FAIL");
  PrintRule();
  report->AddCase("disabled_instrumentation_site", ns_per_site * 1e-9,
                  {{"ns_per_site", ns_per_site}, {"bound_ns", kBoundNs}});
  if (ns_per_site >= kBoundNs) std::exit(1);
}

}  // namespace
}  // namespace cdpd

int main() {
  cdpd::bench_util::BenchReport report("parallel_whatif");
  cdpd::Report(&report);
  cdpd::AssertDisabledInstrumentationIsFree(&report);
  report.Write();
  cdpd::bench_util::WriteObservabilityArtifacts();
  return 0;
}
