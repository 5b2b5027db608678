#include "core/unconstrained_optimizer.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/stopwatch.h"
#include "core/relax_stage.h"

namespace cdpd {

Result<DesignSchedule> SolveUnconstrained(const DesignProblem& problem,
                                          SolveStats* stats, ThreadPool* pool,
                                          Tracer* tracer, const Budget* budget,
                                          const ProgressFn* progress,
                                          Logger* logger,
                                          ResourceTracker* tracker,
                                          CostCache* cost_cache) {
  CDPD_RETURN_IF_ERROR(problem.Validate());
  const WhatIfEngine& what_if = *problem.what_if;
  const Stopwatch watch;
  const int64_t costings_before = what_if.costings();
  const size_t n = problem.num_segments();
  const CandidateSpace& configs = problem.candidates;
  const size_t m = configs.size();

  SolveStats local_stats;
  local_stats.threads_used = pool != nullptr ? pool->num_threads() : 1;
  DesignSchedule schedule;
  if (n == 0) {
    if (problem.final_config.has_value()) {
      schedule.total_cost =
          what_if.TransitionCost(problem.initial, *problem.final_config);
    }
    local_stats.wall_seconds = watch.ElapsedSeconds();
    if (stats != nullptr) *stats = local_stats;
    return schedule;
  }

  CDPD_LOG(logger, LogLevel::kInfo, "unconstrained.start",
           LogField("segments", n), LogField("candidates", m));

  // Charge the matrix and the DP arrays (dist/next doubles, the flat
  // n x m parent table and the kernel's lattice scratch) before
  // allocating either; a refusal degrades to the cheapest static
  // schedule instead of blowing the budget.
  const RelaxPath relax_path = ChooseRelaxPath(configs);
  ScopedReservation matrix_reservation = ScopedReservation::Try(
      tracker, MemComponent::kCostMatrix, CostMatrix::EstimateBytes(n, m));
  ScopedReservation dp_reservation;
  if (matrix_reservation.ok()) {
    dp_reservation = ScopedReservation::Try(
        tracker, MemComponent::kSequenceGraph,
        static_cast<int64_t>((2 * m) * sizeof(double) +
                             n * m * sizeof(DpParent)) +
            RelaxScratchBytes(configs, relax_path));
  }
  if (!matrix_reservation.ok() || !dp_reservation.ok()) {
    CDPD_LOG(logger, LogLevel::kWarn, "unconstrained.memory_limit",
             LogField("limit_bytes", tracker->limit_bytes()),
             LogField("fallback", "best-static"));
    CDPD_ASSIGN_OR_RETURN(schedule,
                          BestStaticSchedule(problem, std::nullopt));
    local_stats.deadline_hit = true;
    local_stats.best_effort = true;
    local_stats.wall_seconds = watch.ElapsedSeconds();
    local_stats.costings = what_if.costings() - costings_before;
    if (stats != nullptr) *stats = local_stats;
    return schedule;
  }

  // Parallel precompute; the DP below is pure table lookups.
  CostMatrix matrix;
  std::vector<double> init_trans(m, 0.0);
  std::vector<double> final_trans(m, 0.0);
  {
    CDPD_TRACE_SPAN(tracer, "unconstrained.precompute", "solver");
    CDPD_ASSIGN_OR_RETURN(
        matrix, what_if.PrecomputeCostMatrix(configs, pool, tracer, budget,
                                             progress, logger, cost_cache,
                                             tracker));
    local_stats.cost_cache_hits = matrix.cache_hits();
    local_stats.cost_cache_misses = matrix.cache_misses();
  }
  if (!matrix.complete()) {
    return Status::DeadlineExceeded(
        "budget expired during the what-if precompute, before any "
        "feasible schedule could be priced");
  }
  ParallelFor(pool, 0, m, [&](size_t c) {
    init_trans[c] = what_if.TransitionCost(problem.initial, configs[c]);
    if (problem.final_config.has_value()) {
      final_trans[c] = what_if.TransitionCost(configs[c], *problem.final_config);
    }
  });
  const double* const final_or_null =
      problem.final_config.has_value() ? final_trans.data() : nullptr;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(m);
  // parent[stage * m + c]: the previous stage's config (layer 0).
  std::vector<DpParent> parent(n * m);

  CDPD_TRACE_SPAN(tracer, "unconstrained.dp", "solver",
                  static_cast<int64_t>(n));
  for (size_t c = 0; c < m; ++c) dist[c] = init_trans[c] + matrix.Exec(0, c);
  std::vector<double> next(m, kInf);
  RelaxKernel kernel(matrix, configs, /*layers=*/1, /*count_changes=*/false,
                     relax_path);
  std::vector<ConfigId> path(n);
  // Holds the cheapest configuration after stage `last_stage` (plus an
  // optional final transition) and walks the parents back from it.
  const auto best_path = [&](size_t last_stage) {
    double best = kInf;
    size_t best_c = 0;
    for (size_t c = 0; c < m; ++c) {
      double cost = dist[c] + matrix.ExecRange(last_stage + 1, n, c);
      if (final_or_null != nullptr) cost += final_trans[c];
      if (cost < best) {
        best = cost;
        best_c = c;
      }
    }
    std::fill(path.begin() + static_cast<std::ptrdiff_t>(last_stage),
              path.end(), static_cast<ConfigId>(best_c));
    size_t c = best_c;
    for (size_t stage = last_stage; stage > 0; --stage) {
      c = static_cast<size_t>(parent[stage * m + c].config);
      path[stage - 1] = static_cast<ConfigId>(c);
    }
    DesignSchedule done;
    done.configs.reserve(n);
    for (const ConfigId id : path) done.configs.push_back(configs[id]);
    done.total_cost = PricePath(matrix, path, init_trans.data(), final_or_null);
    return done;
  };
  const auto finish = [&](DesignSchedule done) -> DesignSchedule {
    local_stats.nodes_expanded = static_cast<int64_t>(m) + kernel.reachable();
    local_stats.relaxations = kernel.relaxations();
    local_stats.wall_seconds = watch.ElapsedSeconds();
    local_stats.costings = what_if.costings() - costings_before;
    if (stats != nullptr) *stats = local_stats;
    return done;
  };

  for (size_t stage = 1; stage < n; ++stage) {
    if (BudgetExpired(budget)) {
      // Anytime fallback: freeze the cheapest completed prefix by
      // holding its final configuration for the remaining stages —
      // always feasible, the unconstrained problem has no change bound.
      CDPD_LOG(logger, LogLevel::kWarn, "unconstrained.deadline",
               LogField("stage", stage), LogField("stages", n));
      local_stats.deadline_hit = true;
      local_stats.best_effort = true;
      return finish(best_path(stage - 1));
    }
    ReportProgress(progress, "unconstrained.dp",
                   static_cast<double>(stage) / static_cast<double>(n));
    kernel.RelaxStage(stage, dist.data(), next.data(),
                      parent.data() + stage * m);
    std::swap(dist, next);
  }

  // Destination: unconstrained, or a forced final transition.
  schedule = finish(best_path(n - 1));
  ReportProgress(progress, "unconstrained.dp", 1.0, schedule.total_cost);
  CDPD_LOG(logger, LogLevel::kInfo, "unconstrained.end",
           LogField("cost", schedule.total_cost),
           LogField("nodes_expanded", local_stats.nodes_expanded),
           LogField("relaxations", local_stats.relaxations));
  return schedule;
}

}  // namespace cdpd
