#ifndef CDPD_CORE_DESIGN_MERGING_H_
#define CDPD_CORE_DESIGN_MERGING_H_

#include <cstdint>

#include "common/result.h"
#include "common/solve_context.h"
#include "core/design_problem.h"
#include "core/solve_stats.h"

namespace cdpd {

/// Sequential design merging (§4.2): refines a solution of the
/// unconstrained problem until it satisfies the change bound k. Each
/// step picks the pair of consecutive distinct configurations
/// (C_i, C_{i+1}) and the replacement C' minimizing the penalty
///
///   p =   TRANS(C_{i-1}, C') + EXEC(S_i ∪ S_{i+1}, C') + TRANS(C', C_{i+2})
///       - (TRANS(C_{i-1}, C_i) + EXEC(S_i, C_i) + TRANS(C_i, C_{i+1})
///          + EXEC(S_{i+1}, C_{i+1}) + TRANS(C_{i+1}, C_{i+2}))
///
/// and replaces the pair with C'. If C' equals a neighbouring
/// configuration the step removes two changes, otherwise one. The
/// result is heuristic: it satisfies the constraint but is not
/// guaranteed optimal, even when the input schedule is the
/// unconstrained optimum.
///
/// Each step's (pair, replacement) penalty sweep is evaluated in
/// parallel across `ctx.pool` when one is given; the winning replacement
/// is selected by a serial scan in the serial iteration order, so the
/// result is identical for any thread count.
///
/// `initial_schedule.configs` must have one entry per problem segment.
/// `stats` (optional) receives merge_steps, candidate_evaluations and
/// the fallback flags, added to what it holds. With `ctx.tracer` the
/// refinement and its final pricing record one "merging.merge" span
/// (arg = the merge steps taken).
///
/// `ctx.budget` (optional) bounds the refinement; expiry is polled between
/// merging rounds (a started round always completes). A mid-refinement
/// schedule still violates k — the partial refinement is NOT a
/// feasible answer — so on expiry the solve degrades to the cheapest
/// feasible static schedule with stats->deadline_hit and
/// stats->best_effort set, and returns DeadlineExceeded only when not
/// even a static design satisfies the bound. A budget that never
/// expires changes nothing: the schedule is byte-identical to an
/// un-budgeted run.
///
/// `ctx.progress` receives "merging" updates between rounds, the
/// fraction being the share of excess changes merged away so far;
/// `ctx.logger` records start/end and fallback events. Both are
/// observational only.
///
/// `ctx.tracker` (optional) accounts each round's penalty tables
/// (kMergingTable), released when the round ends. A round whose tables
/// the tracker's soft limit refuses degrades immediately to the static
/// fallback (the partial refinement still violates k, so it is not a
/// feasible answer to return).
Result<DesignSchedule> MergeToConstraint(const DesignProblem& problem,
                                         const DesignSchedule& initial_schedule,
                                         int64_t k,
                                         SolveStats* stats = nullptr,
                                         const SolveContext& ctx = {});

}  // namespace cdpd

#endif  // CDPD_CORE_DESIGN_MERGING_H_
