#include "core/path_ranking.h"

#include <algorithm>
#include <limits>

#include "common/stopwatch.h"

namespace cdpd {

PathRanker::PathRanker(const SequenceGraph& graph, const Budget* budget,
                       ResourceTracker* tracker)
    : graph_(&graph), budget_(budget), tree_(ComputeShortestPaths(graph)) {
  nodes_.assign(
      static_cast<size_t>(graph.num_nodes()),
      NodeState(TrackingAllocator<PathRef>(tracker,
                                           MemComponent::kRankingQueue)));
  state_reservation_ = ScopedReservation(
      tracker, MemComponent::kRankingQueue,
      static_cast<int64_t>(nodes_.size() * sizeof(NodeState)));
  // π^1 of every reachable node comes from the shortest-path tree.
  for (size_t v = 0; v < nodes_.size(); ++v) {
    if (tree_.dist[v] == std::numeric_limits<double>::infinity()) continue;
    PathRef first;
    first.cost = tree_.dist[v];
    first.pred_edge = tree_.parent_edge[v];
    first.pred_index = first.pred_edge < 0 ? -1 : 0;
    nodes_[v].paths.push_back(first);
  }
}

void PathRanker::PushCandidate(NodeState* state, PathRef ref) {
  state->candidates.push_back(ref);
  std::push_heap(state->candidates.begin(), state->candidates.end(),
                 [](const PathRef& a, const PathRef& b) {
                   return a.cost > b.cost;  // Min-heap.
                 });
}

bool PathRanker::EnsurePath(SequenceGraph::NodeId node, size_t rank) {
  NodeState& state = nodes_[static_cast<size_t>(node)];
  while (state.paths.size() <= rank) {
    // The source has exactly one path (the graph is acyclic).
    if (node == graph_->source()) return false;
    if (state.paths.empty()) return false;  // Unreachable node.
    if (BudgetExpired(budget_)) return false;

    // One-time: alternative predecessors of π^1 become candidates.
    if (!state.initialized_alternatives) {
      state.initialized_alternatives = true;
      const int32_t tree_edge = state.paths.front().pred_edge;
      for (int32_t edge_id : graph_->InEdgeIds(node)) {
        if (edge_id == tree_edge) continue;
        const SequenceGraph::Edge& edge = graph_->edge(edge_id);
        const NodeState& pred = nodes_[static_cast<size_t>(edge.from)];
        if (pred.paths.empty()) continue;  // Unreachable predecessor.
        PushCandidate(&state,
                      PathRef{pred.paths.front().cost + edge.weight, edge_id,
                              0});
      }
    }

    // The previously selected path spawns one new candidate: the next
    // path of its predecessor, extended by the same edge.
    const PathRef& last = state.paths.back();
    if (last.pred_edge >= 0) {
      const SequenceGraph::Edge& edge = graph_->edge(last.pred_edge);
      const size_t next_rank = static_cast<size_t>(last.pred_index) + 1;
      if (EnsurePath(edge.from, next_rank)) {
        const NodeState& pred = nodes_[static_cast<size_t>(edge.from)];
        PushCandidate(&state,
                      PathRef{pred.paths[next_rank].cost + edge.weight,
                              last.pred_edge,
                              static_cast<int64_t>(next_rank)});
      }
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
  const SequenceGraph::NodeId dest = graph_->destination();
  const auto rank = static_cast<size_t>(paths_yielded_);
  if (!EnsurePath(dest, rank)) return std::nullopt;
  ++paths_yielded_;

  RankedPath path;
  path.cost = nodes_[static_cast<size_t>(dest)].paths[rank].cost;
  // Backtrack through (node, rank) pairs.
  SequenceGraph::NodeId node = dest;
  size_t node_rank = rank;
  for (;;) {
    path.nodes.push_back(node);
    const PathRef& ref = nodes_[static_cast<size_t>(node)].paths[node_rank];
    if (ref.pred_edge < 0) break;
    node = graph_->edge(ref.pred_edge).from;
    node_rank = static_cast<size_t>(ref.pred_index);
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

Result<DesignSchedule> SolveByRanking(const DesignProblem& problem, int64_t k,
                                      int64_t max_paths, SolveStats* stats,
                                      ThreadPool* pool, Tracer* tracer,
                                      const Budget* budget,
                                      const ProgressFn* progress,
                                      Logger* logger,
                                      ResourceTracker* tracker,
                                      CostCache* cost_cache) {
  CDPD_RETURN_IF_ERROR(problem.Validate());
  if (k < 0) {
    return Status::InvalidArgument("change bound k must be >= 0");
  }
  const WhatIfEngine& what_if = *problem.what_if;
  const Stopwatch watch;
  const int64_t costings_before = what_if.costings();
  SolveStats local_stats;
  local_stats.threads_used = pool != nullptr ? pool->num_threads() : 1;
  // Parallel phase: the dense cost tables. The graph build and the
  // path enumeration below are then pure lookups.
  CDPD_LOG(logger, LogLevel::kInfo, "ranking.start",
           LogField("segments", problem.num_segments()),
           LogField("candidates", problem.candidates.size()),
           LogField("k", k), LogField("max_paths", max_paths));

  // Charge the dense cost tables and the materialized graph before
  // building either; a refusal skips the enumeration entirely and
  // degrades to the cheapest static schedule (the same last-resort
  // fallback a failed enumeration reaches below).
  ScopedReservation matrix_reservation = ScopedReservation::Try(
      tracker, MemComponent::kCostMatrix,
      CostMatrix::EstimateBytes(problem.num_segments(),
                                problem.candidates.size()));
  ScopedReservation graph_reservation;
  if (matrix_reservation.ok()) {
    graph_reservation = ScopedReservation::Try(
        tracker, MemComponent::kSequenceGraph,
        EstimateSequenceGraphBytes(
            static_cast<int64_t>(problem.num_segments()),
            static_cast<int64_t>(problem.candidates.size())));
  }
  if (!matrix_reservation.ok() || !graph_reservation.ok()) {
    CDPD_LOG(logger, LogLevel::kWarn, "ranking.memory_limit",
             LogField("limit_bytes", tracker->limit_bytes()),
             LogField("fallback", "best-static"));
    Result<DesignSchedule> fallback = BestStaticSchedule(problem, k);
    if (!fallback.ok()) {
      return Status::DeadlineExceeded(
          "memory budget exhausted before the ranking could start, and "
          "no static design satisfies k = " + std::to_string(k));
    }
    local_stats.best_effort = true;
    local_stats.deadline_hit = true;
    local_stats.wall_seconds = watch.ElapsedSeconds();
    local_stats.costings = what_if.costings() - costings_before;
    if (stats != nullptr) *stats = local_stats;
    return std::move(fallback).value();
  }

  CostMatrix matrix;
  {
    CDPD_TRACE_SPAN(tracer, "ranking.precompute", "solver");
    CDPD_ASSIGN_OR_RETURN(
        matrix, what_if.PrecomputeCostMatrix(problem.candidates, pool, tracer,
                                             budget, progress, logger,
                                             cost_cache, tracker));
    local_stats.cost_cache_hits = matrix.cache_hits();
    local_stats.cost_cache_misses = matrix.cache_misses();
  }
  if (!matrix.complete()) {
    return Status::DeadlineExceeded(
        "budget expired during the what-if precompute, before any "
        "feasible schedule could be priced");
  }
  CDPD_ASSIGN_OR_RETURN(SequenceGraph graph,
                        SequenceGraph::Build(problem, &matrix));
  local_stats.nodes_expanded = graph.num_nodes();
  PathRanker ranker(graph, budget, tracker);
  TraceSpan enumerate_span(tracer, "ranking.enumerate", "solver");
  const auto finish = [&] {
    enumerate_span.set_arg(local_stats.paths_enumerated);
    local_stats.wall_seconds = watch.ElapsedSeconds();
    local_stats.costings = what_if.costings() - costings_before;
    if (stats != nullptr) *stats = local_stats;
  };
  while (local_stats.paths_enumerated < max_paths &&
         !BudgetExpired(budget)) {
    // Every 1024 paths so a megapath enumeration doesn't spend its
    // time in the callback (cost when detached: one AND + one test).
    if ((local_stats.paths_enumerated & 1023) == 0) {
      ReportProgress(progress, "ranking.enumerate",
                     static_cast<double>(local_stats.paths_enumerated) /
                         static_cast<double>(max_paths));
    }
    std::optional<RankedPath> path = ranker.Next();
    if (!path.has_value()) break;  // Ranking exhausted (or expired).
    ++local_stats.paths_enumerated;
    if (graph.PathChanges(path->nodes) <= k) {
      DesignSchedule schedule;
      schedule.configs = graph.PathConfigs(path->nodes);
      schedule.total_cost = path->cost;
      ReportProgress(progress, "ranking.enumerate", 1.0, path->cost);
      CDPD_LOG(logger, LogLevel::kInfo, "ranking.end",
               LogField("cost", path->cost),
               LogField("paths_enumerated", local_stats.paths_enumerated),
               LogField("changes", graph.PathChanges(path->nodes)));
      finish();
      return schedule;
    }
  }
  // The enumeration ended empty-handed — max_paths cap, true
  // exhaustion, or budget expiry. Degrade to the cheapest feasible
  // static schedule rather than failing: a flagged suboptimal answer
  // beats no answer, and the caller can read best_effort/deadline_hit
  // to tell. (Cost note: the static scan prices one shape-cost column
  // per candidate, |shapes| costings each.)
  const bool expired = BudgetExpired(budget);
  CDPD_LOG(logger, LogLevel::kWarn, "ranking.fallback",
           LogField("paths_enumerated", local_stats.paths_enumerated),
           LogField("expired", expired));
  Result<DesignSchedule> fallback = BestStaticSchedule(problem, k);
  if (fallback.ok()) {
    local_stats.best_effort = true;
    local_stats.deadline_hit = expired;
    finish();
    return std::move(fallback).value();
  }
  finish();
  if (expired) {
    return Status::DeadlineExceeded(
        "budget expired after " +
        std::to_string(local_stats.paths_enumerated) +
        " ranked paths, and no static design satisfies k = " +
        std::to_string(k));
  }
  return Status::ResourceExhausted(
      "no path with <= " + std::to_string(k) + " changes within the first " +
      std::to_string(local_stats.paths_enumerated) +
      " ranked paths, and no static design satisfies the bound");
}

}  // namespace cdpd
