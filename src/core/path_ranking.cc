#include "core/path_ranking.h"

#include <algorithm>
#include <limits>

#include "common/math_util.h"
#include "core/k_aware_graph.h"
#include "core/relax_stage.h"
#include "core/solver.h"

namespace cdpd {

PathRanker::PathRanker(const DesignProblem& problem, const CostMatrix& matrix,
                       const Budget* budget, ResourceTracker* tracker)
    : problem_(&problem),
      matrix_(&matrix),
      budget_(budget),
      num_configs_(problem.candidates.size()),
      destination_(static_cast<NodeId>(problem.num_segments() *
                                       problem.candidates.size())) {
  const WhatIfEngine& what_if = *problem.what_if;
  const size_t n = problem.num_segments();
  const size_t m = num_configs_;
  first_.resize(static_cast<size_t>(destination_) + 1);
  nodes_.assign(first_.size(), NodeState(Allocator(tracker)));
  if (problem.final_config.has_value()) {
    final_trans_.resize(m);
    for (size_t c = 0; c < m; ++c) {
      final_trans_[c] =
          what_if.TransitionCost(problem.candidates[c], *problem.final_config);
    }
  }
  if (n == 0) {  // The destination's one in-edge comes from the source.
    if (problem.final_config.has_value()) {
      first_[0].cost =
          what_if.TransitionCost(problem.initial, *problem.final_config);
    }
    return;
  }

  // π^1 stage by stage: the scan kernel's unset-k values are the
  // cheapest ranked costs, and its back-pointers their predecessors.
  std::vector<double> dist(m);
  std::vector<double> next(m);
  std::vector<DpParent> parent(m);
  for (size_t c = 0; c < m; ++c) {
    dist[c] = what_if.TransitionCost(problem.initial, problem.candidates[c]) +
              matrix.Exec(0, c);
    first_[c].cost = dist[c];
  }
  RelaxKernel kernel(matrix, problem.candidates, /*layers=*/1,
                     /*count_changes=*/false, RelaxPath::kScan);
  for (size_t stage = 1; stage < n; ++stage) {
    kernel.RelaxStage(stage, dist.data(), next.data(), parent.data());
    for (size_t c = 0; c < m; ++c) {
      first_[stage * m + c] = PathRef{
          next[c], static_cast<NodeId>((stage - 1) * m + parent[c].config), 0};
    }
    std::swap(dist, next);
  }
  // The destination: the cheapest last-stage node, lowest c on a tie.
  PathRef& best = first_[static_cast<size_t>(destination_)];
  best.cost = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < m; ++c) {
    const auto node = static_cast<NodeId>((n - 1) * m + c);
    const double cost = Extend(dist[c], node, destination_);
    if (cost < best.cost) best = PathRef{cost, node, 0};
  }
}

int64_t PathRanker::StateBytes(size_t num_stages, size_t num_configs) {
  const int64_t nodes = SaturatingAdd(
      SaturatingMul(static_cast<int64_t>(num_stages),
                    static_cast<int64_t>(num_configs)),
      1);
  return SaturatingMul(
      nodes, static_cast<int64_t>(sizeof(PathRef) + sizeof(NodeState)));
}

double PathRanker::Extend(double cost, NodeId pred, NodeId node) const {
  const size_t p = static_cast<size_t>(pred) % num_configs_;
  if (node == destination_) {
    return final_trans_.empty() ? cost : cost + final_trans_[p];
  }
  const size_t stage = static_cast<size_t>(node) / num_configs_;
  const size_t c = static_cast<size_t>(node) % num_configs_;
  return (cost + matrix_->Trans(p, c)) + matrix_->Exec(stage, c);
}

void PathRanker::PushCandidate(NodeState* state, PathRef ref) {
  state->candidates.push_back(ref);
  std::push_heap(state->candidates.begin(), state->candidates.end(),
                 [](const PathRef& a, const PathRef& b) {
                   return a.cost > b.cost;  // Min-heap.
                 });
}

bool PathRanker::EnsurePath(NodeId node, size_t rank) {
  NodeState& state = nodes_[static_cast<size_t>(node)];
  while (state.paths.size() < rank) {
    // A path from the source is the node's only one (a stage-0 node,
    // or the destination of an empty workload).
    if (first_[static_cast<size_t>(node)].pred < 0) return false;
    if (BudgetExpired(budget_)) return false;

    // One-time: alternative predecessors of π^1 become candidates. The
    // in-edges of a stage node come from every node of the stage
    // before; those of the destination from every last-stage node.
    if (!state.initialized_alternatives) {
      state.initialized_alternatives = true;
      const NodeId tree_pred = first_[static_cast<size_t>(node)].pred;
      const NodeId stage_begin =
          tree_pred - tree_pred % static_cast<NodeId>(num_configs_);
      for (size_t p = 0; p < num_configs_; ++p) {
        const NodeId pred = stage_begin + static_cast<NodeId>(p);
        if (pred == tree_pred) continue;
        PushCandidate(&state,
                      PathRef{Extend(first_[static_cast<size_t>(pred)].cost,
                                     pred, node),
                              pred, 0});
      }
    }

    // The previously selected path spawns one new candidate: the next
    // path of its predecessor, extended by the same edge.
    const PathRef last = Path(node, state.paths.size());
    const size_t next_rank = static_cast<size_t>(last.pred_index) + 1;
    if (EnsurePath(last.pred, next_rank)) {
      PushCandidate(&state,
                    PathRef{Extend(Path(last.pred, next_rank).cost, last.pred,
                                   node),
                            last.pred, static_cast<int64_t>(next_rank)});
    }

    // Expiry is monotone, so re-checking here distinguishes a
    // recursive EnsurePath that failed from expiry (candidate set may
    // be incomplete — popping it could yield paths out of cost order)
    // from one that failed from true exhaustion (safe to pop).
    if (BudgetExpired(budget_)) return false;
    if (state.candidates.empty()) return false;
    std::pop_heap(state.candidates.begin(), state.candidates.end(),
                  [](const PathRef& a, const PathRef& b) {
                    return a.cost > b.cost;
                  });
    state.paths.push_back(state.candidates.back());
    state.candidates.pop_back();
  }
  return true;
}

std::optional<RankedPath> PathRanker::Next() {
  const auto rank = static_cast<size_t>(paths_yielded_);
  if (!EnsurePath(destination_, rank)) return std::nullopt;
  ++paths_yielded_;

  // Backtrack through (node, rank) pairs, one stage per step.
  const PathRef* ref = &Path(destination_, rank);
  RankedPath path;
  path.cost = ref->cost;
  path.configs.resize(problem_->num_segments());
  for (size_t stage = path.configs.size(); stage-- > 0;) {
    path.configs[stage] =
        static_cast<ConfigId>(static_cast<size_t>(ref->pred) % num_configs_);
    ref = &Path(ref->pred, static_cast<size_t>(ref->pred_index));
  }
  return path;
}

/// Constrained optimum via shortest-path ranking (§5): enumerate paths
/// of the *plain* sequence graph in cost order and return the first
/// whose design sequence has at most options.k changes — optimal
/// because every path not yet seen is at least as long. Its cost is the
/// ranked cost, equal to EvaluateScheduleCost bit for bit. Worst-case
/// exponential; options.ranking_max_paths bounds the enumeration, and
/// result->method_detail reports the paths ranked. An empty workload
/// gets the empty schedule at TRANS(C0, final) (0 without a final
/// design); a graph of more than INT32_MAX nodes is InvalidArgument
/// before any allocation. Called only by Solve(), with options.k set.
///
/// When the enumeration ends without an answer — the cap tripped, the
/// ranking ran dry, or ctx.budget expired — the solve degrades to the
/// cheapest feasible *static* schedule (BestStaticSchedule) with
/// stats.best_effort set, plus stats.deadline_hit when a budget expiry
/// caused it. Error statuses are reserved for genuinely empty-handed
/// exits: DeadlineExceeded when the budget expired and not even the
/// static fallback is feasible, ResourceExhausted when the
/// cap/exhaustion hit and the fallback is infeasible.
///
/// The EXEC/TRANS cost matrices are precomputed in parallel across
/// ctx.pool before the ranking starts; the enumeration itself is
/// inherently sequential (each ranked path conditions the next). The
/// solve records "ranking.precompute" and "ranking.enumerate" spans
/// (arg = paths enumerated), and reports "ranking.enumerate" progress
/// as paths yielded over the cap.
///
/// ctx.tracker accounts the cost matrix (kCostMatrix) and the ranker's
/// state (kRankingQueue): its fixed per-node state
/// (PathRanker::StateBytes) is reserved before either is built, and
/// the lists that grow during the enumeration are metered through the
/// ranker's counting allocator. A limit refusal of either reservation
/// degrades straight to the static fallback; a limit tripped
/// mid-enumeration winds down at the next poll via the attached
/// Budget.
Status SolveByRanking(const DesignProblem& problem,
                      const SolveOptions& options, const SolveContext& ctx,
                      SolveResult* result) {
  CDPD_RETURN_IF_ERROR(problem.Validate());
  const int64_t k = *options.k;
  const int64_t max_paths = options.ranking_max_paths;
  SolveStats& stats = result->stats;
  int64_t& paths = stats.paths_enumerated;
  // Node ids are int32: reject a graph that would not be addressable
  // before reserving or allocating anything.
  const size_t n = problem.num_segments();
  const size_t m = problem.candidates.size();
  const int64_t num_nodes =
      ComputeKAwareGraphSize(static_cast<int64_t>(n), static_cast<int64_t>(m),
                             std::nullopt)
          .nodes;
  if (num_nodes > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument(
        "sequence graph over " + std::to_string(n) + " segments and " +
        std::to_string(m) +
        " candidate configurations exceeds the 32-bit node id space");
  }
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "ranking.start",
           LogField("segments", n), LogField("candidates", m),
           LogField("k", k), LogField("max_paths", max_paths));
  // Every answer, ranked or static, reports the paths ranked.
  const auto answer = [&](DesignSchedule schedule) {
    result->schedule = std::move(schedule);
    result->method_detail = "ranked paths: " + std::to_string(paths);
    return Status::OK();
  };

  // Charge the dense cost tables and the ranker's per-node state before
  // building either; a refusal skips the enumeration entirely and
  // degrades to the cheapest static schedule (the same last-resort
  // fallback a failed enumeration reaches below).
  ScopedReservation matrix_reservation = ScopedReservation::Try(
      ctx.tracker, MemComponent::kCostMatrix, CostMatrix::EstimateBytes(n, m));
  ScopedReservation ranker_reservation;
  if (matrix_reservation.ok()) {
    ranker_reservation =
        ScopedReservation::Try(ctx.tracker, MemComponent::kRankingQueue,
                               PathRanker::StateBytes(n, m));
  }
  if (!matrix_reservation.ok() || !ranker_reservation.ok()) {
    CDPD_LOG(ctx.logger, LogLevel::kWarn, "ranking.memory_limit",
             LogField("limit_bytes", ctx.tracker->limit_bytes()),
             LogField("fallback", "best-static"));
    Result<DesignSchedule> fallback = BestStaticSchedule(problem, k);
    if (!fallback.ok()) {
      return Status::DeadlineExceeded(
          "memory budget exhausted before the ranking could start, and "
          "no static design satisfies k = " + std::to_string(k));
    }
    stats.best_effort = true;
    stats.deadline_hit = true;
    return answer(std::move(fallback).value());
  }

  // Parallel phase: the dense cost tables. The path enumeration below
  // is then pure lookups.
  CostMatrix matrix;
  {
    CDPD_TRACE_SPAN(ctx.tracer, "ranking.precompute", "solver");
    CDPD_ASSIGN_OR_RETURN(
        matrix, problem.what_if->PrecomputeCostMatrix(problem.candidates, ctx));
  }
  if (!matrix.complete()) {
    return Status::DeadlineExceeded(
        "budget expired during the what-if precompute, before any "
        "feasible schedule could be priced");
  }
  stats.nodes_expanded = num_nodes;
  PathRanker ranker(problem, matrix, ctx.budget, ctx.tracker);
  TraceSpan enumerate_span(ctx.tracer, "ranking.enumerate", "solver");
  while (paths < max_paths && !BudgetExpired(ctx.budget)) {
    // Every 1024 paths so a megapath enumeration doesn't spend its
    // time in the callback (cost when detached: one AND + one test).
    if ((paths & 1023) == 0) {
      ReportProgress(ctx.progress, "ranking.enumerate",
                     static_cast<double>(paths) /
                         static_cast<double>(max_paths));
    }
    std::optional<RankedPath> path = ranker.Next();
    if (!path.has_value()) break;  // Ranking exhausted (or expired).
    ++paths;
    DesignSchedule schedule;
    schedule.configs.reserve(n);
    for (const ConfigId id : path->configs) {
      schedule.configs.push_back(problem.candidates[id]);
    }
    const int64_t changes = CountChanges(problem, schedule.configs);
    if (changes <= k) {
      schedule.total_cost = path->cost;
      ReportProgress(ctx.progress, "ranking.enumerate", 1.0, path->cost);
      CDPD_LOG(ctx.logger, LogLevel::kInfo, "ranking.end",
               LogField("cost", path->cost),
               LogField("paths_enumerated", paths),
               LogField("changes", changes));
      enumerate_span.set_arg(paths);
      return answer(std::move(schedule));
    }
  }
  enumerate_span.set_arg(paths);
  // The enumeration ended empty-handed — max_paths cap, true
  // exhaustion, or budget expiry. Degrade to the cheapest feasible
  // static schedule rather than failing: a flagged suboptimal answer
  // beats no answer, and the caller can read best_effort/deadline_hit
  // to tell. (Cost note: the static scan prices one shape-cost column
  // per candidate, |shapes| costings each.)
  const bool expired = BudgetExpired(ctx.budget);
  CDPD_LOG(ctx.logger, LogLevel::kWarn, "ranking.fallback",
           LogField("paths_enumerated", paths), LogField("expired", expired));
  Result<DesignSchedule> fallback = BestStaticSchedule(problem, k);
  if (fallback.ok()) {
    stats.best_effort = true;
    stats.deadline_hit = expired;
    return answer(std::move(fallback).value());
  }
  if (expired) {
    return Status::DeadlineExceeded(
        "budget expired after " + std::to_string(paths) +
        " ranked paths, and no static design satisfies k = " +
        std::to_string(k));
  }
  return Status::ResourceExhausted(
      "no path with <= " + std::to_string(k) + " changes within the first " +
      std::to_string(paths) +
      " ranked paths, and no static design satisfies the bound");
}

}  // namespace cdpd
