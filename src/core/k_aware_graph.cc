#include "core/k_aware_graph.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/math_util.h"
#include "common/stopwatch.h"
#include "core/relax_stage.h"

namespace cdpd {

KAwareGraphSize ComputeKAwareGraphSize(int64_t num_stages, int64_t num_configs,
                                       int64_t k) {
  KAwareGraphSize size;
  // Saturating throughout: k + 1 alone overflows for k = INT64_MAX,
  // and the node/edge products overflow long before that.
  const int64_t layers = SaturatingAdd(k, 1);
  size.nodes = SaturatingAdd(
      SaturatingMul(SaturatingMul(num_stages, layers), num_configs), 2);
  if (num_stages == 0) {
    size.edges = 0;
    return size;
  }
  // Source edges: into every stage-1 node of layer 0 (the initial
  // design choice; see DesignProblem::count_initial_change for why the
  // first transition does not consume a layer by default).
  int64_t edges = num_configs;
  // Between consecutive stages, per layer: num_configs stay edges, and
  // num_configs * (num_configs - 1) change edges into the next layer
  // (absent from the last layer).
  const int64_t change_edges =
      SaturatingMul(num_configs, num_configs > 0 ? num_configs - 1 : 0);
  const int64_t per_gap =
      SaturatingAdd(SaturatingMul(layers, num_configs),
                    SaturatingMul(layers - 1, change_edges));
  edges = SaturatingAdd(edges, SaturatingMul(num_stages - 1, per_gap));
  // Destination edges: from every node of the last stage.
  edges = SaturatingAdd(edges, SaturatingMul(layers, num_configs));
  size.edges = edges;
  return size;
}

int64_t PredictKAwareTableBytes(int64_t num_stages,
                                const CandidateSpace& candidates, int64_t k,
                                bool count_initial_change) {
  const auto num_configs = static_cast<int64_t>(candidates.size());
  if (num_stages <= 0 || num_configs <= 0) return 0;
  if (k < 0) k = 0;
  // The same layer clamp SolveKAware applies before sizing its tables.
  const int64_t max_changes = num_stages - 1 + (count_initial_change ? 1 : 0);
  const int64_t layers =
      SaturatingAdd(k >= max_changes ? max_changes : k, 1);
  const int64_t layer_cells = SaturatingMul(layers, num_configs);
  // dist + next: two layers x m double arrays.
  int64_t bytes = SaturatingMul(
      SaturatingMul(int64_t{2}, layer_cells),
      static_cast<int64_t>(sizeof(double)));
  // parent: n x layers x m DpParent cells.
  bytes = SaturatingAdd(
      bytes, SaturatingMul(SaturatingMul(num_stages, layer_cells),
                           static_cast<int64_t>(sizeof(DpParent))));
  // init_trans + final_trans boundary vectors.
  bytes = SaturatingAdd(
      bytes, SaturatingMul(SaturatingMul(int64_t{2}, num_configs),
                           static_cast<int64_t>(sizeof(double))));
  // The lattice path's per-point values and argmins.
  return SaturatingAdd(
      bytes, RelaxScratchBytes(candidates, ChooseRelaxPath(candidates)));
}

Result<DesignSchedule> SolveKAware(const DesignProblem& problem, int64_t k,
                                   SolveStats* stats, ThreadPool* pool,
                                   Tracer* tracer, const Budget* budget,
                                   const ProgressFn* progress, Logger* logger,
                                   ResourceTracker* tracker) {
  CDPD_RETURN_IF_ERROR(problem.Validate());
  if (k < 0) {
    return Status::InvalidArgument("change bound k must be >= 0");
  }
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

  // No schedule over n segments can make more changes than n - 1
  // interior switches plus (when it counts) the initial build, so a
  // larger k buys nothing — clamp before sizing the DP table. The
  // clamp also makes k = INT64_MAX safe: layers is computed from the
  // clamped value, never from k + 1 directly.
  const int64_t max_changes =
      static_cast<int64_t>(n) - 1 + (problem.count_initial_change ? 1 : 0);
  const size_t layers =
      static_cast<size_t>(k >= max_changes ? max_changes : k) + 1;
  // The parent table holds n * layers * m cells; reject sizes that
  // overflow int64 before allocating (the allocation itself would
  // otherwise wrap size_t arithmetic or bad_alloc unpredictably).
  int64_t table_cells = 0;
  if (!CheckedMul(static_cast<int64_t>(n), static_cast<int64_t>(layers),
                  &table_cells) ||
      !CheckedMul(table_cells, static_cast<int64_t>(m), &table_cells)) {
    return Status::InvalidArgument(
        "k-aware DP table of " + std::to_string(n) + " stages x " +
        std::to_string(layers) + " layers x " + std::to_string(m) +
        " candidate configurations overflows the addressable size");
  }

  // Charge the two big allocation classes before making either. A
  // refusal (the tracker's soft limit would be passed) degrades to the
  // cheapest static schedule instead of allocating past budget — the
  // same anytime contract as a deadline, reached before any table
  // exists.
  ScopedReservation matrix_reservation = ScopedReservation::Try(
      tracker, MemComponent::kCostMatrix, CostMatrix::EstimateBytes(n, m));
  ScopedReservation table_reservation;
  if (matrix_reservation.ok()) {
    table_reservation = ScopedReservation::Try(
        tracker, MemComponent::kKAwareTable,
        PredictKAwareTableBytes(static_cast<int64_t>(n), configs, k,
                                problem.count_initial_change));
  }
  if (!matrix_reservation.ok() || !table_reservation.ok()) {
    CDPD_LOG(logger, LogLevel::kWarn, "kaware.memory_limit",
             LogField("limit_bytes", tracker->limit_bytes()),
             LogField("fallback", "best-static"));
    CDPD_ASSIGN_OR_RETURN(schedule, BestStaticSchedule(problem, k));
    local_stats.deadline_hit = true;
    local_stats.best_effort = true;
    local_stats.wall_seconds = watch.ElapsedSeconds();
    local_stats.costings = what_if.costings() - costings_before;
    if (stats != nullptr) *stats = local_stats;
    return schedule;
  }

  // Phase 1 (parallel): dense EXEC/TRANS matrices plus the boundary
  // transition vectors. After this, the DP touches no shared mutable
  // state — every probe is a read-only table lookup.
  CostMatrix matrix;
  std::vector<double> init_trans(m, 0.0);
  std::vector<double> final_trans(m, 0.0);
  CDPD_LOG(logger, LogLevel::kInfo, "kaware.start", LogField("segments", n),
           LogField("candidates", m), LogField("k", k),
           LogField("layers", layers));
  {
    CDPD_TRACE_SPAN(tracer, "kaware.precompute", "solver");
    CDPD_ASSIGN_OR_RETURN(
        matrix, what_if.PrecomputeCostMatrix(configs, pool, tracer, budget,
                                             progress, logger));
    if (!matrix.complete()) {
      return Status::DeadlineExceeded(
          "budget expired during the what-if precompute, before any "
          "feasible schedule could be priced");
    }
    ParallelFor(pool, 0, m, [&](size_t c) {
      init_trans[c] = what_if.TransitionCost(problem.initial, configs[c]);
      if (problem.final_config.has_value()) {
        final_trans[c] =
            what_if.TransitionCost(configs[c], *problem.final_config);
      }
    });
  }
  const double* const final_or_null =
      problem.final_config.has_value() ? final_trans.data() : nullptr;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // dist[l * m + c]: cheapest way to execute S_1..S_i with
  // C_i = configs[c] using at most l changes.
  std::vector<double> dist(layers * m, kInf);
  // parent[(stage * layers + l) * m + c] for path reconstruction.
  std::vector<DpParent> parent(n * layers * m);

  for (size_t c = 0; c < m; ++c) {
    const bool is_initial = configs[c] == problem.initial;
    const size_t layer =
        (problem.count_initial_change && !is_initial) ? 1 : 0;
    if (layer >= layers) continue;
    const double cost = init_trans[c] + matrix.Exec(0, c);
    if (cost < dist[layer * m + c]) {
      dist[layer * m + c] = cost;
      ++local_stats.nodes_expanded;
    }
  }

  // Phase 2: the layered DP, one serial kernel sweep per stage. The
  // kernel picks the scan or the subset-lattice path from the space;
  // either way the schedule is independent of the thread count.
  std::vector<double> next(layers * m, kInf);
  RelaxKernel kernel(matrix, configs, layers, /*count_changes=*/true,
                     ChooseRelaxPath(configs));
  std::vector<ConfigId> path(n);
  // Walks the parent table back from (last_stage, l, c) into path.
  const auto trace_back = [&](size_t last_stage, size_t l, size_t c) {
    for (size_t stage = last_stage + 1; stage-- > 0;) {
      path[stage] = static_cast<ConfigId>(c);
      if (stage == 0) break;
      const DpParent p = parent[(stage * layers + l) * m + c];
      l = static_cast<size_t>(p.layer);
      c = static_cast<size_t>(p.config);
    }
  };
  const auto finish = [&](DesignSchedule done) -> DesignSchedule {
    local_stats.nodes_expanded += kernel.reachable();
    local_stats.relaxations = kernel.relaxations();
    local_stats.wall_seconds = watch.ElapsedSeconds();
    local_stats.costings = what_if.costings() - costings_before;
    if (stats != nullptr) *stats = local_stats;
    return done;
  };
  // Anytime fallback: freeze the cheapest completed DP prefix. Holding
  // the chosen cell's configuration for the remaining stages adds zero
  // design changes, so whatever layer the prefix ended in, the frozen
  // schedule still makes at most k changes. dist holds the
  // stage-`last_stage` values; parent rows 1..last_stage are filled.
  const auto freeze_prefix =
      [&](size_t last_stage) -> Result<DesignSchedule> {
    double best = kInf;
    size_t best_l = 0;
    size_t best_c = 0;
    for (size_t l = 0; l < layers; ++l) {
      for (size_t c = 0; c < m; ++c) {
        if (dist[l * m + c] == kInf) continue;
        double cost =
            dist[l * m + c] + matrix.ExecRange(last_stage + 1, n, c);
        if (problem.final_config.has_value()) cost += final_trans[c];
        if (cost < best) {
          best = cost;
          best_l = l;
          best_c = c;
        }
      }
    }
    if (best == kInf) {
      return Status::DeadlineExceeded(
          "budget expired before any feasible schedule was found (the "
          "completed k-aware DP prefix has no reachable state)");
    }
    std::fill(path.begin() + static_cast<std::ptrdiff_t>(last_stage),
              path.end(), static_cast<ConfigId>(best_c));
    trace_back(last_stage, best_l, best_c);
    DesignSchedule frozen;
    frozen.configs.reserve(n);
    for (const ConfigId id : path) frozen.configs.push_back(configs[id]);
    frozen.total_cost =
        PricePath(matrix, path, init_trans.data(), final_or_null);
    local_stats.deadline_hit = true;
    local_stats.best_effort = true;
    return frozen;
  };

  CDPD_TRACE_SPAN(tracer, "kaware.dp", "solver",
                  static_cast<int64_t>(n - 1));
  for (size_t stage = 1; stage < n; ++stage) {
    if (BudgetExpired(budget)) {
      CDPD_LOG(logger, LogLevel::kWarn, "kaware.deadline",
               LogField("stage", stage), LogField("stages", n));
      CDPD_ASSIGN_OR_RETURN(DesignSchedule frozen, freeze_prefix(stage - 1));
      return finish(std::move(frozen));
    }
    ReportProgress(progress, "kaware.dp",
                   static_cast<double>(stage) / static_cast<double>(n));
    kernel.RelaxStage(stage, dist.data(), next.data(),
                      parent.data() + stage * layers * m);
    std::swap(dist, next);
  }

  double best = kInf;
  size_t best_layer = 0;
  size_t best_config = 0;
  for (size_t l = 0; l < layers; ++l) {
    for (size_t c = 0; c < m; ++c) {
      if (dist[l * m + c] == kInf) continue;
      double cost = dist[l * m + c];
      if (problem.final_config.has_value()) {
        cost += final_trans[c];
      }
      if (cost < best) {
        best = cost;
        best_layer = l;
        best_config = c;
      }
    }
  }
  if (best == kInf) {
    return Status::Internal("k-aware graph has no feasible path");
  }

  trace_back(n - 1, best_layer, best_config);
  schedule.configs.reserve(n);
  for (const ConfigId id : path) schedule.configs.push_back(configs[id]);
  schedule.total_cost =
      PricePath(matrix, path, init_trans.data(), final_or_null);
  ReportProgress(progress, "kaware.dp", 1.0, schedule.total_cost);
  schedule = finish(std::move(schedule));
  CDPD_LOG(logger, LogLevel::kInfo, "kaware.end",
           LogField("cost", schedule.total_cost),
           LogField("nodes_expanded", local_stats.nodes_expanded),
           LogField("relaxations", local_stats.relaxations));
  return schedule;
}

}  // namespace cdpd
