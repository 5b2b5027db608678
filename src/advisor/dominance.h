#ifndef CDPD_ADVISOR_DOMINANCE_H_
#define CDPD_ADVISOR_DOMINANCE_H_

#include <cstdint>
#include <vector>

#include "advisor/candidate_space.h"
#include "common/solve_context.h"
#include "core/design_problem.h"

namespace cdpd {

/// Outcome of a dominance-pruning pass over a problem's candidate
/// space: the surviving ConfigIds (ascending original order, so
/// relative ConfigId order is preserved in the subset space) and how
/// many configurations were eliminated.
struct DominanceResult {
  std::vector<ConfigId> survivors;
  int64_t pruned = 0;
};

/// Eliminates candidate configurations that can never improve any
/// schedule — CoPhy-style dominated-configuration elimination adapted
/// to the *sequence* problem, where a configuration is reachable and
/// leavable, not just held.
///
/// Configuration j dominates i (i != j, both members) when every way a
/// schedule can pay for i is at least as expensive as paying for j in
/// its place:
///  * EXEC, workload-wide: StatementCost(shape, j) <=
///    StatementCost(shape, i) for every shape of the workload profile.
///    Each segment's EXEC is a nonnegative-weighted sum over a subset
///    of those shapes, so the pointwise shape inequality gives
///    EXEC(S, j) <= EXEC(S, i) for every segment S — at |shapes| x m
///    probes instead of n x m, which is what makes the check O(1) in
///    the sequence length;
///  * reachability: TRANS(C0, j) <= TRANS(C0, i), and TRANS(p, j) <=
///    TRANS(p, i) for every other member p not in {i, j};
///  * leavability: TRANS(j, q) <= TRANS(i, q) for every member q not
///    in {i, j}, and TRANS(j, F) <= TRANS(i, F) when a final
///    configuration F is constrained.
///
/// Exactness (the replacement argument): take any schedule that uses a
/// pruned i and substitute its surviving dominator j for *every*
/// occurrence of i. Every EXEC term is <= by the shape inequality;
/// every transition either maps to a <= transition (the reach/leave
/// inequalities, the boundaries) or becomes a self-transition of cost
/// 0 (the pairs (j, i), (i, j), (i, i) — transition costs are
/// nonnegative sums of build/drop costs, so dropping one never raises
/// the total). Adjacent equal configurations can only merge, so the
/// change count never grows and the initial-change accounting is
/// preserved. Hence the substituted schedule is feasible for the same
/// k and costs no more: for every change budget and every method, the
/// pruned space contains a schedule at least as good as any the full
/// space offers, and the exact methods return cost-identical optima.
///
/// The scan is sequential over ascending ConfigId, testing each
/// configuration only against *already-accepted survivors* (the check
/// over survivors is fanned out on `ctx.pool`). That keeps the dominator
/// of every pruned configuration a survivor — the replacement above
/// never chases a chain into another pruned configuration, so no
/// cycle/termination argument is needed even though the pairwise
/// relation (with its {i, j} exclusions) is not transitive. Ties
/// (configurations with identical cost vectors) keep the lowest
/// ConfigId. The configuration equal to problem.initial is never
/// pruned: with count_initial_change it is the only layer-0 start the
/// DP has, and keeping it costs one candidate.
///
/// Deterministic for any thread count. `ctx.budget` (optional) is polled
/// between candidates; on expiry the remaining configurations are
/// accepted unpruned — pruning is an optimization, so a truncated pass
/// is still exact. Scratch tables (|shapes| x m shape costs, m x m
/// TRANS) are charged to MemComponent::kCandidates via `ctx.tracker`; a
/// refused reservation skips pruning entirely (identity result) rather
/// than failing the solve.
DominanceResult PruneDominatedConfigs(const DesignProblem& problem,
                                      const SolveContext& ctx = {});

}  // namespace cdpd

#endif  // CDPD_ADVISOR_DOMINANCE_H_
