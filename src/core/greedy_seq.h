#ifndef CDPD_CORE_GREEDY_SEQ_H_
#define CDPD_CORE_GREEDY_SEQ_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/budget.h"
#include "common/log.h"
#include "common/progress.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "core/design_problem.h"
#include "core/k_aware_graph.h"
#include "core/solve_stats.h"
#include "cost/cost_cache.h"

namespace cdpd {

/// Options of the GREEDY-SEQ candidate reduction.
struct GreedySeqOptions {
  /// The m candidate *indexes* (not configurations) the greedy
  /// construction composes.
  std::vector<IndexDef> candidate_indexes;
  /// Cap on indexes per configuration (the paper's experiments use 1).
  int32_t max_indexes_per_config = 1 << 20;
};

/// Outcome of a GREEDY-SEQ solve.
struct GreedySeqResult {
  DesignSchedule schedule;
  /// The reduced configuration set the shortest-path search ran on —
  /// O(m n) configurations instead of 2^m.
  std::vector<Configuration> reduced_candidates;
  /// Unified counters of the whole solve (greedy growth + graph
  /// search).
  SolveStats stats;
};

/// GREEDY-SEQ adapted to the constrained problem (§4.1): instead of
/// searching all 2^m index subsets, build a small candidate set — for
/// each segment, grow a configuration greedily (always adding the
/// index with the largest EXEC improvement, subject to the space bound
/// and max_indexes_per_config), keeping every intermediate
/// configuration — then run the k-aware shortest-path search over that
/// reduced set. `problem.candidates` is ignored and replaced by the
/// reduced set; pass nullopt k for the unconstrained variant (Agrawal
/// et al.'s original GREEDY-SEQ).
///
/// Each greedy growth step prices all candidate indexes in parallel
/// across `pool` (the argmin is a serial scan in index order, so the
/// reduced set is identical for any thread count), and the graph
/// search inherits the pool. With a `tracer` the solve records one
/// "greedyseq.grow" span around the growth (arg = the segment count)
/// and a "greedyseq.graph" span around the reduced-set graph search.
///
/// `budget` (optional) bounds the solve; expiry is polled between
/// greedy growth steps and segments (a growth step always completes,
/// so the reduced set is a deterministic prefix of the un-budgeted
/// one). When the growth is cut short, the graph search still runs —
/// un-budgeted, over the partial reduced set, which always contains
/// the empty and initial configurations, so a feasible schedule is
/// guaranteed — and the result carries stats.deadline_hit and
/// stats.best_effort. When the growth completes, the graph search runs
/// under the remaining budget and inherits the k-aware/unconstrained
/// anytime semantics. A budget that never expires changes nothing: the
/// result is byte-identical to an un-budgeted run.
///
/// `progress` receives "greedyseq.grow" updates per grown segment and
/// the inherited graph-search phases (thread-safe callback required;
/// see common/progress.h); `logger` records start/end and the reduced
/// candidate-set size. Both optional, both observational only.
///
/// `tracker` (optional) meters the growing reduced candidate set
/// (kCandidates) as it is built — a tracker limit tripped mid-growth
/// stops the growth at the next poll via the attached Budget, exactly
/// like a deadline — and flows into the graph search, which charges
/// its own tables (kCostMatrix, kKAwareTable / kSequenceGraph).
Result<GreedySeqResult> SolveGreedySeq(const DesignProblem& problem,
                                       std::optional<int64_t> k,
                                       const GreedySeqOptions& options,
                                       ThreadPool* pool = nullptr,
                                       Tracer* tracer = nullptr,
                                       const Budget* budget = nullptr,
                                       const ProgressFn* progress = nullptr,
                                       Logger* logger = nullptr,
                                       ResourceTracker* tracker = nullptr,
                                       CostCache* cost_cache = nullptr);

}  // namespace cdpd

#endif  // CDPD_CORE_GREEDY_SEQ_H_
