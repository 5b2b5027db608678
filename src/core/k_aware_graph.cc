#include "core/k_aware_graph.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <new>

#include "common/math_util.h"
#include "core/relax_stage.h"

namespace cdpd {

KAwareGraphSize ComputeKAwareGraphSize(int64_t num_stages, int64_t num_configs,
                                       std::optional<int64_t> k) {
  KAwareGraphSize size;
  // Saturating throughout: k + 1 alone overflows for k = INT64_MAX,
  // and the node/edge products overflow long before that. An unset k
  // has one layer, and its change edges stay inside it.
  const int64_t layers = k.has_value() ? SaturatingAdd(*k, 1) : 1;
  const int64_t change_layers = k.has_value() ? layers - 1 : 1;
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
                    SaturatingMul(change_layers, change_edges));
  edges = SaturatingAdd(edges, SaturatingMul(num_stages - 1, per_gap));
  // Destination edges: from every node of the last stage.
  edges = SaturatingAdd(edges, SaturatingMul(layers, num_configs));
  size.edges = edges;
  return size;
}

namespace {

/// The checkpoint blocks of an n-stage DP: its relaxed stages 1..n-1
/// cut into `count` consecutive runs whose lengths differ by at most
/// one, the longer runs first. `requested` is clamped to [1, n - 1], so
/// every block relaxes at least one stage.
struct StageBlocks {
  StageBlocks(size_t num_stages, size_t requested) {
    const size_t relaxed = num_stages > 0 ? num_stages - 1 : 0;
    count = std::max<size_t>(1, std::min(requested, relaxed));
    base = relaxed / count;
    longer = relaxed % count;
  }
  /// The first stage of block b; Begin(count) is one past the last.
  size_t Begin(size_t b) const { return 1 + b * base + std::min(b, longer); }
  /// Stages in the longest block: the parent rows the table holds.
  size_t MaxRows() const { return base + (longer > 0 ? 1 : 0); }

  size_t count = 1;
  size_t base = 0;    // Stages in a shorter block.
  size_t longer = 0;  // Blocks that hold base + 1 stages.
};

/// Where one solve reports itself: the k-aware graph's names, or the
/// plain sequence graph's for an unset k.
struct DpNames {
  const char* start;
  const char* memory_limit;
  const char* precompute;
  const char* dp;
  const char* path;
  const char* deadline;
  const char* end;
  MemComponent table;
};

constexpr DpNames kKAwareNames = {
    "kaware.start",    "kaware.memory_limit", "kaware.precompute",
    "kaware.dp",       "kaware.path",         "kaware.deadline",
    "kaware.end",      MemComponent::kKAwareTable};
constexpr DpNames kUnconstrainedNames = {
    "unconstrained.start",      "unconstrained.memory_limit",
    "unconstrained.precompute", "unconstrained.dp",
    "unconstrained.path",       "unconstrained.deadline",
    "unconstrained.end",        MemComponent::kSequenceGraph};

/// Frees a table allocated with ::operator new.
struct OperatorDelete {
  void operator()(void* table) const { ::operator delete(table); }
};

}  // namespace

int64_t PredictKAwareTableBytes(int64_t num_stages,
                                const CandidateSpace& candidates, int64_t k,
                                bool count_initial_change,
                                int64_t num_blocks) {
  const auto num_configs = static_cast<int64_t>(candidates.size());
  if (num_stages <= 0 || num_configs <= 0) return 0;
  if (k < 0) k = 0;
  // The same layer and block clamps SolveKAware applies before sizing
  // its tables.
  const int64_t max_changes = num_stages - 1 + (count_initial_change ? 1 : 0);
  const int64_t layers =
      SaturatingAdd(k >= max_changes ? max_changes : k, 1);
  const int64_t layer_cells = SaturatingMul(layers, num_configs);
  const StageBlocks blocks(
      static_cast<size_t>(num_stages),
      static_cast<size_t>(std::max<int64_t>(num_blocks, 1)));
  // dist + next and the checkpoints of every block but the last:
  // B + 1 layers x m double arrays.
  int64_t bytes = SaturatingMul(
      SaturatingMul(static_cast<int64_t>(blocks.count) + 1, layer_cells),
      static_cast<int64_t>(sizeof(double)));
  // parent: one block's rows of layers x m DpParent cells.
  bytes = SaturatingAdd(
      bytes,
      SaturatingMul(SaturatingMul(static_cast<int64_t>(blocks.MaxRows()),
                                  layer_cells),
                    static_cast<int64_t>(sizeof(DpParent))));
  // init_trans + final_trans boundary vectors.
  bytes = SaturatingAdd(
      bytes, SaturatingMul(SaturatingMul(int64_t{2}, num_configs),
                           static_cast<int64_t>(sizeof(double))));
  // The lattice path's per-point values and argmins.
  return SaturatingAdd(
      bytes, RelaxScratchBytes(candidates, ChooseRelaxPath(candidates)));
}

Result<DesignSchedule> SolveKAware(const DesignProblem& problem,
                                   std::optional<int64_t> k,
                                   SolveStats* stats, const SolveContext& ctx,
                                   size_t num_blocks) {
  CDPD_RETURN_IF_ERROR(problem.Validate());
  if (k.has_value() && *k < 0) {
    return Status::InvalidArgument("change bound k must be >= 0");
  }
  const DpNames& names = k.has_value() ? kKAwareNames : kUnconstrainedNames;
  const WhatIfEngine& what_if = *problem.what_if;
  const size_t n = problem.num_segments();
  const CandidateSpace& configs = problem.candidates;
  const size_t m = configs.size();

  SolveStats unused_stats;
  SolveStats& out = stats != nullptr ? *stats : unused_stats;
  DesignSchedule schedule;
  if (n == 0) {
    if (problem.final_config.has_value()) {
      schedule.total_cost =
          what_if.TransitionCost(problem.initial, *problem.final_config);
    }
    return schedule;
  }
  const StageBlocks blocks(n, num_blocks);
  if (blocks.count > 1) {
    out.segment_chunks = static_cast<int64_t>(blocks.count);
  }

  // No schedule over n segments can make more changes than n - 1
  // interior switches plus (when it counts) the initial build, so a
  // larger k buys nothing — clamp before sizing the DP table. The
  // clamp also makes k = INT64_MAX safe: layers is computed from the
  // clamped value, never from k + 1 directly. An unset k counts no
  // changes and needs the one layer of k = 0.
  const int64_t max_changes =
      static_cast<int64_t>(n) - 1 + (problem.count_initial_change ? 1 : 0);
  const int64_t k_or_zero = k.value_or(0);
  const size_t layers =
      static_cast<size_t>(std::min(k_or_zero, max_changes)) + 1;
  // The one-block parent table holds (n - 1) * layers * m cells; reject
  // an n * layers * m that overflows int64 before allocating (the
  // allocation itself would otherwise wrap size_t arithmetic or
  // bad_alloc unpredictably).
  int64_t table_cells = 0;
  if (!CheckedMul(static_cast<int64_t>(n), static_cast<int64_t>(layers),
                  &table_cells) ||
      !CheckedMul(table_cells, static_cast<int64_t>(m), &table_cells)) {
    return Status::InvalidArgument(
        "k-aware DP table of " + std::to_string(n) + " stages x " +
        std::to_string(layers) + " layers x " + std::to_string(m) +
        " candidate configurations overflows the addressable size");
  }

  // The anytime floor: the cheapest static schedule, flagged.
  const auto best_static = [&]() -> Result<DesignSchedule> {
    CDPD_ASSIGN_OR_RETURN(DesignSchedule fallback,
                          BestStaticSchedule(problem, k));
    out.deadline_hit = true;
    out.best_effort = true;
    return fallback;
  };

  // Charge the two big allocation classes before making either. A
  // refusal (the tracker's soft limit would be passed) degrades to the
  // cheapest static schedule instead of allocating past budget — the
  // same anytime contract as a deadline, reached before any table
  // exists.
  ScopedReservation matrix_reservation = ScopedReservation::Try(
      ctx.tracker, MemComponent::kCostMatrix, CostMatrix::EstimateBytes(n, m));
  ScopedReservation table_reservation;
  if (matrix_reservation.ok()) {
    table_reservation = ScopedReservation::Try(
        ctx.tracker, names.table,
        PredictKAwareTableBytes(static_cast<int64_t>(n), configs, k_or_zero,
                                problem.count_initial_change,
                                static_cast<int64_t>(blocks.count)));
  }
  if (!matrix_reservation.ok() || !table_reservation.ok()) {
    CDPD_LOG(ctx.logger, LogLevel::kWarn, names.memory_limit,
             LogField("limit_bytes", ctx.tracker->limit_bytes()),
             LogField("fallback", "best-static"));
    return best_static();
  }

  // Phase 1 (parallel): dense EXEC/TRANS matrices plus the boundary
  // transition vectors. After this, the DP touches no shared mutable
  // state — every probe is a read-only table lookup.
  CostMatrix matrix;
  std::vector<double> init_trans(m, 0.0);
  std::vector<double> final_trans(m, 0.0);
  CDPD_LOG(ctx.logger, LogLevel::kInfo, names.start, LogField("segments", n),
           LogField("candidates", m), LogField("k", k.value_or(-1)),
           LogField("layers", layers));
  {
    CDPD_TRACE_SPAN(ctx.tracer, names.precompute, "solver");
    CDPD_ASSIGN_OR_RETURN(matrix, what_if.PrecomputeCostMatrix(configs, ctx));
    if (!matrix.complete()) {
      return Status::DeadlineExceeded(
          "budget expired during the what-if precompute, before any "
          "feasible schedule could be priced");
    }
    ParallelFor(ctx.pool, 0, m, [&](size_t c) {
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
  const size_t layer_cells = layers * m;
  // dist[l * m + c]: cheapest way to execute S_1..S_i with
  // C_i = configs[c] using at most l changes.
  std::vector<double> dist(layer_cells, kInf);
  // One block's back-pointers: parent[(row * layers + l) * m + c], row
  // = stage - the block's first stage. The kernel writes a cell before
  // any back-pointer can lead to it, and the backtrack follows only
  // those, so the table is allocated without a value-initializing pass
  // and reused across blocks without clearing.
  const std::unique_ptr<DpParent[], OperatorDelete> parent(
      static_cast<DpParent*>(::operator new(blocks.MaxRows() * layer_cells *
                                            sizeof(DpParent))));
  // checkpoints[b * layers * m + ...]: dist entering block b, for every
  // block but the last.
  std::vector<double> checkpoints((blocks.count - 1) * layer_cells);

  // Without a bound no change is counted, the initial build included.
  int64_t nodes_expanded = 0;
  const bool initial_counts = k.has_value() && problem.count_initial_change;
  for (size_t c = 0; c < m; ++c) {
    const bool is_initial = configs[c] == problem.initial;
    const size_t layer = (initial_counts && !is_initial) ? 1 : 0;
    if (layer >= layers) continue;
    const double cost = init_trans[c] + matrix.Exec(0, c);
    if (cost < dist[layer * m + c]) {
      dist[layer * m + c] = cost;
      ++nodes_expanded;
    }
  }

  // Phase 2: the layered DP, one serial kernel sweep per stage. The
  // kernel picks the scan or the subset-lattice path from the space;
  // either way the schedule is independent of the thread count.
  std::vector<double> next(layer_cells, kInf);
  RelaxKernel kernel(matrix, configs, layers,
                     /*count_changes=*/k.has_value(),
                     ChooseRelaxPath(configs));
  std::vector<ConfigId> path(n);
  // Walks the back-pointers from the cell (l, c) of stage `last_stage`
  // into path. The table holds the last block's rows; each earlier
  // block is first re-relaxed from its checkpoint into the same table,
  // which reproduces the forward pass's rows bit for bit. False when
  // the budget expired during a re-relaxation.
  const auto trace_back = [&](size_t last_stage, size_t l, size_t c) {
    size_t b = blocks.count - 1;
    size_t first = blocks.Begin(b);
    for (size_t stage = last_stage; stage > 0; --stage) {
      if (stage < first) {
        first = blocks.Begin(--b);
        std::copy_n(checkpoints.begin() + b * layer_cells, layer_cells,
                    dist.begin());
        for (size_t s = first; s <= stage; ++s) {
          if (BudgetExpired(ctx.budget)) return false;
          kernel.RelaxStage(s, dist.data(), next.data(),
                            parent.get() + (s - first) * layer_cells);
          std::swap(dist, next);
        }
      }
      path[stage] = static_cast<ConfigId>(c);
      const DpParent p = parent[((stage - first) * layers + l) * m + c];
      l = static_cast<size_t>(p.layer);
      c = static_cast<size_t>(p.config);
    }
    path[0] = static_cast<ConfigId>(c);
    return true;
  };
  const auto finish = [&](DesignSchedule done) -> DesignSchedule {
    out.nodes_expanded += nodes_expanded;
    out.relaxations += kernel.relaxations();
    return done;
  };
  // Anytime fallback: freeze the cheapest completed DP prefix. Holding
  // the chosen cell's configuration for the remaining stages adds zero
  // design changes, so whatever layer the prefix ended in, the frozen
  // schedule still makes at most k changes. dist holds the
  // stage-`last_stage` values; with one block, parent rows
  // 1..last_stage are filled.
  const auto freeze_prefix =
      [&](size_t last_stage) -> Result<DesignSchedule> {
    // EXEC of the frozen tail per configuration, in stage order.
    std::vector<double> tail(m, 0.0);
    for (size_t stage = last_stage + 1; stage < n; ++stage) {
      for (size_t c = 0; c < m; ++c) tail[c] += matrix.Exec(stage, c);
    }
    double best = kInf;
    size_t best_l = 0;
    size_t best_c = 0;
    for (size_t l = 0; l < layers; ++l) {
      for (size_t c = 0; c < m; ++c) {
        if (dist[l * m + c] == kInf) continue;
        double cost = dist[l * m + c] + tail[c];
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
    out.deadline_hit = true;
    out.best_effort = true;
    return frozen;
  };

  {
    CDPD_TRACE_SPAN(ctx.tracer, names.dp, "solver",
                    static_cast<int64_t>(n - 1));
    for (size_t b = 0; b < blocks.count; ++b) {
      // Every block but the last saves the dist it starts from and
      // keeps no parent rows; the backtrack re-relaxes it.
      const bool last = b + 1 == blocks.count;
      const size_t first = blocks.Begin(b);
      if (!last) {
        std::copy(dist.begin(), dist.end(),
                  checkpoints.begin() + b * layer_cells);
      }
      for (size_t stage = first; stage < blocks.Begin(b + 1); ++stage) {
        if (BudgetExpired(ctx.budget)) {
          CDPD_LOG(ctx.logger, LogLevel::kWarn, names.deadline,
                   LogField("stage", stage), LogField("stages", n));
          nodes_expanded += kernel.reachable();
          if (blocks.count > 1) {
            CDPD_ASSIGN_OR_RETURN(DesignSchedule fallback, best_static());
            return finish(std::move(fallback));
          }
          CDPD_ASSIGN_OR_RETURN(DesignSchedule frozen,
                                freeze_prefix(stage - 1));
          return finish(std::move(frozen));
        }
        ReportProgress(ctx.progress, names.dp,
                       static_cast<double>(stage) / static_cast<double>(n));
        kernel.RelaxStage(
            stage, dist.data(), next.data(),
            last ? parent.get() + (stage - first) * layer_cells : nullptr);
        std::swap(dist, next);
      }
    }
  }
  // The re-relaxations below reach the same cells again; count each once.
  nodes_expanded += kernel.reachable();

  // The best final cell, its backtrack (re-relaxing every block but
  // the last), the schedule and its price.
  CDPD_TRACE_SPAN(ctx.tracer, names.path, "solver", static_cast<int64_t>(n));

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

  if (!trace_back(n - 1, best_layer, best_config)) {
    CDPD_LOG(ctx.logger, LogLevel::kWarn, names.deadline,
             LogField("phase", "backtrack"), LogField("stages", n));
    CDPD_ASSIGN_OR_RETURN(DesignSchedule fallback, best_static());
    return finish(std::move(fallback));
  }
  schedule.configs.reserve(n);
  for (const ConfigId id : path) schedule.configs.push_back(configs[id]);
  schedule.total_cost =
      PricePath(matrix, path, init_trans.data(), final_or_null);
  ReportProgress(ctx.progress, names.dp, 1.0, schedule.total_cost);
  CDPD_LOG(ctx.logger, LogLevel::kInfo, names.end,
           LogField("cost", schedule.total_cost),
           LogField("nodes_expanded", nodes_expanded),
           LogField("relaxations", kernel.relaxations()));
  return finish(std::move(schedule));
}

}  // namespace cdpd
