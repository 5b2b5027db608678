#include "core/greedy_seq.h"

#include <algorithm>
#include <limits>

#include "common/stopwatch.h"

namespace cdpd {

Result<GreedySeqResult> SolveGreedySeq(const DesignProblem& problem,
                                       std::optional<int64_t> k,
                                       const GreedySeqOptions& options,
                                       ThreadPool* pool, Tracer* tracer,
                                       const Budget* budget,
                                       const ProgressFn* progress,
                                       Logger* logger,
                                       ResourceTracker* tracker) {
  if (problem.what_if == nullptr) {
    return Status::InvalidArgument("design problem has no what-if oracle");
  }
  if (options.candidate_indexes.empty()) {
    return Status::InvalidArgument("GREEDY-SEQ needs candidate indexes");
  }
  const WhatIfEngine& what_if = *problem.what_if;
  const Stopwatch watch;
  const int64_t costings_before = what_if.costings();
  const int64_t rows = what_if.model().num_rows();
  const size_t num_indexes = options.candidate_indexes.size();

  GreedySeqResult result;
  result.stats.threads_used = pool != nullptr ? pool->num_threads() : 1;

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
  } candidate_charge{tracker};

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
  CDPD_LOG(logger, LogLevel::kInfo, "greedyseq.start",
           LogField("segments", problem.num_segments()),
           LogField("candidate_indexes", num_indexes));
  bool grow_expired = false;
  {
    CDPD_TRACE_SPAN(tracer, "greedyseq.grow", "solver",
                    static_cast<int64_t>(problem.num_segments()));
    for (size_t segment = 0;
         segment < problem.num_segments() && !grow_expired; ++segment) {
      ReportProgress(progress, "greedyseq.grow",
                     static_cast<double>(segment) /
                         static_cast<double>(problem.num_segments()));
      Configuration current;
      double current_cost = what_if.SegmentCost(segment, current);
      for (;;) {
        if (BudgetExpired(budget)) {
          grow_expired = true;
          break;
        }
        ParallelFor(pool, 0, num_indexes, [&](size_t i) {
          const IndexDef& index = options.candidate_indexes[i];
          grown_costs[i] = kInf;
          if (current.Contains(index)) return;
          const Configuration grown = current.With(index);
          if (grown.num_indexes() > options.max_indexes_per_config) return;
          if (grown.SizePages(rows) > problem.space_bound_pages) return;
          grown_costs[i] = what_if.SegmentCost(segment, grown);
        });
        result.stats.candidate_evaluations +=
            static_cast<int64_t>(num_indexes);
        double best_cost = current_cost;
        const IndexDef* best_index = nullptr;
        for (size_t i = 0; i < num_indexes; ++i) {
          if (grown_costs[i] < best_cost) {
            best_cost = grown_costs[i];
            best_index = &options.candidate_indexes[i];
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

  result.reduced_candidates = std::move(reduced);
  SolveStats graph_stats;
  {
    CDPD_TRACE_SPAN(tracer, "greedyseq.graph", "solver",
                    static_cast<int64_t>(reduced_problem.candidates.size()));
    // When the growth was cut short the partial reduced set is the
    // best candidate set solved so far — run the graph search on it
    // WITHOUT the budget so a feasible schedule is guaranteed (the set
    // always contains the empty and initial configurations). When the
    // growth completed, pass the budget through and inherit the graph
    // search's own anytime semantics.
    const Budget* graph_budget = grow_expired ? nullptr : budget;
    if (grow_expired) {
      CDPD_LOG(logger, LogLevel::kWarn, "greedyseq.grow_deadline",
               LogField("reduced_candidates",
                        reduced_problem.candidates.size()));
    } else {
      CDPD_LOG(logger, LogLevel::kInfo, "greedyseq.grown",
               LogField("reduced_candidates",
                        reduced_problem.candidates.size()));
    }
    CDPD_ASSIGN_OR_RETURN(
        result.schedule,
        SolveKAware(reduced_problem, k, &graph_stats, pool, tracer,
                    graph_budget, progress, logger, tracker));
  }
  result.stats.nodes_expanded = graph_stats.nodes_expanded;
  result.stats.relaxations = graph_stats.relaxations;
  result.stats.deadline_hit = grow_expired || graph_stats.deadline_hit;
  result.stats.best_effort = grow_expired || graph_stats.best_effort;
  result.stats.wall_seconds = watch.ElapsedSeconds();
  result.stats.costings = what_if.costings() - costings_before;
  return result;
}

}  // namespace cdpd
