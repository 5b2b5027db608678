#include "core/greedy_seq.h"

#include <algorithm>
#include <limits>

#include "core/k_aware_graph.h"
#include "core/solver.h"

namespace cdpd {

/// GREEDY-SEQ adapted to the constrained problem (§4.1): instead of
/// searching all 2^m index subsets, build a small candidate set — for
/// each segment, grow a configuration greedily (always adding the
/// index with the largest EXEC improvement, subject to the space bound
/// and options.greedy.max_indexes_per_config), keeping every
/// intermediate configuration — then run the k-aware shortest-path
/// search over that reduced set, O(m n) configurations instead of 2^m.
/// `problem.candidates` is ignored and replaced by the reduced set,
/// which the solve reports in result->reduced_candidates; an unset
/// options.k is Agrawal et al.'s original GREEDY-SEQ. Called only by
/// Solve(), which has validated the options and the oracle.
///
/// Each greedy growth step prices all candidate indexes in parallel
/// across ctx.pool (the argmin is a serial scan in index order, so the
/// reduced set is identical for any thread count), and the graph
/// search inherits the pool. The solve records one "greedyseq.grow"
/// span around the growth (arg = the segment count) and a
/// "greedyseq.graph" span around the reduced-set graph search.
///
/// ctx.budget is polled between greedy growth steps and segments (a
/// growth step always completes, so the reduced set is a deterministic
/// prefix of the un-budgeted one). When the growth is cut short, the
/// graph search still runs — un-budgeted, over the partial reduced set,
/// which always contains the empty and initial configurations, so a
/// feasible schedule is guaranteed — and the result carries
/// stats.deadline_hit and stats.best_effort. When the growth completes,
/// the graph search runs under the remaining budget and inherits the
/// k-aware/unconstrained anytime semantics.
///
/// ctx.tracker meters the growing reduced candidate set (kCandidates)
/// as it is built — a tracker limit tripped mid-growth stops the growth
/// at the next poll via the attached Budget, exactly like a deadline —
/// and flows into the graph search, which charges its own tables.
Status SolveGreedySeq(const DesignProblem& problem,
                      const SolveOptions& options, const SolveContext& ctx,
                      SolveResult* result) {
  const GreedySeqOptions& greedy = options.greedy;
  const WhatIfEngine& what_if = *problem.what_if;
  const int64_t rows = what_if.model().num_rows();
  const size_t num_indexes = greedy.candidate_indexes.size();
  SolveStats& stats = result->stats;

  // Per-segment greedy construction; every intermediate configuration
  // becomes a candidate, giving O(m) candidates per segment. Each
  // growth step prices all candidate indexes in parallel (disjoint
  // writes into `grown_costs`), then picks the winner with a serial
  // scan in index order — the same argmin the serial loop computes.
  // Meters the reduced set as it grows (released when the solve
  // returns, error paths included). A limit tripped mid-growth stops
  // the construction at the next budget poll; the partial set is still
  // a valid (smaller) candidate set.
  struct CandidateCharge {
    ResourceTracker* tracker;
    int64_t bytes = 0;
    void Add(const Configuration& config) {
      if (tracker == nullptr) return;
      int64_t b = static_cast<int64_t>(sizeof(Configuration));
      for (const IndexDef& index : config.indexes()) {
        b += static_cast<int64_t>(
            sizeof(IndexDef) +
            index.key_columns().size() *
                sizeof(index.key_columns()[0]));
      }
      tracker->Reserve(MemComponent::kCandidates, b);
      bytes += b;
    }
    ~CandidateCharge() {
      if (tracker != nullptr) {
        tracker->Release(MemComponent::kCandidates, bytes);
      }
    }
  } candidate_charge{ctx.tracker};

  std::vector<Configuration> reduced;
  reduced.push_back(Configuration::Empty());
  reduced.push_back(problem.initial);
  candidate_charge.Add(reduced[0]);
  candidate_charge.Add(reduced[1]);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> grown_costs(num_indexes, kInf);
  // Expiry is polled between growth steps, never inside one: a step's
  // ParallelFor runs to completion so grown_costs never mixes stale
  // cells, and the reduced set stays a deterministic prefix of the
  // un-budgeted construction.
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "greedyseq.start",
           LogField("segments", problem.num_segments()),
           LogField("candidate_indexes", num_indexes));
  bool grow_expired = false;
  {
    CDPD_TRACE_SPAN(ctx.tracer, "greedyseq.grow", "solver",
                    static_cast<int64_t>(problem.num_segments()));
    for (size_t segment = 0;
         segment < problem.num_segments() && !grow_expired; ++segment) {
      ReportProgress(ctx.progress, "greedyseq.grow",
                     static_cast<double>(segment) /
                         static_cast<double>(problem.num_segments()));
      Configuration current;
      double current_cost = what_if.SegmentCost(segment, current);
      for (;;) {
        if (BudgetExpired(ctx.budget)) {
          grow_expired = true;
          break;
        }
        ParallelFor(ctx.pool, 0, num_indexes, [&](size_t i) {
          const IndexDef& index = greedy.candidate_indexes[i];
          grown_costs[i] = kInf;
          if (current.Contains(index)) return;
          const Configuration grown = current.With(index);
          if (grown.num_indexes() > greedy.max_indexes_per_config) return;
          if (grown.SizePages(rows) > problem.space_bound_pages) return;
          grown_costs[i] = what_if.SegmentCost(segment, grown);
        });
        stats.candidate_evaluations += static_cast<int64_t>(num_indexes);
        double best_cost = current_cost;
        const IndexDef* best_index = nullptr;
        for (size_t i = 0; i < num_indexes; ++i) {
          if (grown_costs[i] < best_cost) {
            best_cost = grown_costs[i];
            best_index = &greedy.candidate_indexes[i];
          }
        }
        if (best_index == nullptr) break;
        current = current.With(*best_index);
        current_cost = best_cost;
        reduced.push_back(current);
        candidate_charge.Add(current);
      }
    }
  }
  std::sort(reduced.begin(), reduced.end());
  reduced.erase(std::unique(reduced.begin(), reduced.end()), reduced.end());

  DesignProblem reduced_problem = problem;
  reduced_problem.candidates = reduced;

  result->reduced_candidates = std::move(reduced);
  {
    CDPD_TRACE_SPAN(ctx.tracer, "greedyseq.graph", "solver",
                    static_cast<int64_t>(reduced_problem.candidates.size()));
    // When the growth was cut short the partial reduced set is the
    // best candidate set solved so far — run the graph search on it
    // WITHOUT the budget so a feasible schedule is guaranteed (the set
    // always contains the empty and initial configurations). When the
    // growth completed, pass the budget through and inherit the graph
    // search's own anytime semantics.
    SolveContext graph_ctx = ctx;
    if (grow_expired) {
      graph_ctx.budget = nullptr;
      CDPD_LOG(ctx.logger, LogLevel::kWarn, "greedyseq.grow_deadline",
               LogField("reduced_candidates",
                        reduced_problem.candidates.size()));
    } else {
      CDPD_LOG(ctx.logger, LogLevel::kInfo, "greedyseq.grown",
               LogField("reduced_candidates",
                        reduced_problem.candidates.size()));
    }
    CDPD_ASSIGN_OR_RETURN(
        result->schedule,
        SolveKAware(reduced_problem, options.k, &stats, graph_ctx));
  }
  if (grow_expired) {
    stats.deadline_hit = true;
    stats.best_effort = true;
  }
  result->method_detail = "greedy-seq reduced candidates: " +
                          std::to_string(result->reduced_candidates.size());
  return Status::OK();
}

}  // namespace cdpd
