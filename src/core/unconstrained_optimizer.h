#ifndef CDPD_CORE_UNCONSTRAINED_OPTIMIZER_H_
#define CDPD_CORE_UNCONSTRAINED_OPTIMIZER_H_

#include "common/budget.h"
#include "common/log.h"
#include "common/progress.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "core/design_problem.h"
#include "core/solve_stats.h"
#include "cost/cost_cache.h"

namespace cdpd {

/// Optimal *unconstrained* dynamic physical design (Agrawal, Chu &
/// Narasayya's formulation, §3 of the paper): the weighted shortest
/// path through the sequence graph, computed as a stage-by-stage
/// dynamic program over the candidate configurations —
///
///   dist_1(c) = TRANS(C0, c) + EXEC(S_1, c)
///   dist_i(c) = min_{c'} [ dist_{i-1}(c') + TRANS(c', c) ] + EXEC(S_i, c)
///
/// which is exactly the O(|V| + |E|) DAG shortest path on the graph of
/// Figure 1, in O(n * |candidates|^2) time (= O(n * 2^{2m}) when the
/// candidate space is all subsets of m indexes) — or O(n * u * 2^u)
/// when the relaxation kernel takes its subset-lattice path
/// (core/relax_stage.h).
///
/// Precomputes the dense EXEC/TRANS matrices (in parallel across
/// `pool` when one is given) and relaxes each stage with the serial
/// RelaxKernel in its one-layer mode; the result is identical for any
/// thread count, and the reported cost is the chosen path re-priced in
/// EvaluateScheduleCost's order (PricePath). With a `tracer` the solve
/// records one "unconstrained.precompute" and one "unconstrained.dp"
/// span (arg = the stage count), whatever n is.
///
/// `budget` (optional) bounds the solve: expiry is polled between
/// precompute blocks and DP stages. Anytime semantics — on expiry
/// mid-DP the best completed prefix is frozen (its cheapest
/// end-of-prefix configuration is held for the remaining stages) and
/// returned with stats->deadline_hit set; DeadlineExceeded only when
/// the budget expires before the precompute finishes, i.e. before any
/// feasible schedule can be priced. A budget that never expires
/// changes nothing: the schedule is byte-identical to an un-budgeted
/// run.
///
/// `progress` receives "whatif.precompute" / "unconstrained.dp"
/// updates at the existing poll sites (thread-safe callback required;
/// see common/progress.h); `logger` records phase start/end and
/// anytime-fallback events. Both optional, both observational only.
///
/// `tracker` (optional) accounts the dense cost matrix (kCostMatrix)
/// and the sequence-graph DP arrays (kSequenceGraph); when its soft
/// limit refuses either reservation the solve returns
/// BestStaticSchedule flagged best_effort/deadline_hit instead of
/// allocating past budget.
///
/// `cost_cache` (optional) is the persistent cross-solve what-if cache
/// threaded into the precompute (see WhatIfEngine::PrecomputeCostMatrix
/// and cost/cost_cache.h); it changes probe counts, never costs.
Result<DesignSchedule> SolveUnconstrained(const DesignProblem& problem,
                                          SolveStats* stats = nullptr,
                                          ThreadPool* pool = nullptr,
                                          Tracer* tracer = nullptr,
                                          const Budget* budget = nullptr,
                                          const ProgressFn* progress = nullptr,
                                          Logger* logger = nullptr,
                                          ResourceTracker* tracker = nullptr,
                                          CostCache* cost_cache = nullptr);

}  // namespace cdpd

#endif  // CDPD_CORE_UNCONSTRAINED_OPTIMIZER_H_
