#ifndef CDPD_CORE_K_AWARE_GRAPH_H_
#define CDPD_CORE_K_AWARE_GRAPH_H_

#include <cstdint>

#include "common/budget.h"
#include "common/log.h"
#include "common/progress.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "core/design_problem.h"
#include "core/solve_stats.h"

namespace cdpd {

/// Size of a k-aware sequence graph (reported by the Figure 2 bench;
/// the solver itself runs the DP without materializing nodes).
struct KAwareGraphSize {
  int64_t nodes = 0;  // Stage/layer states plus source and destination.
  int64_t edges = 0;  // Stay-in-layer + change-to-next-layer edges.
};

/// Exact node/edge counts of the k-aware sequence graph with k+1
/// layers over n stages and `num_configs` candidate configurations
/// (Figure 2's object): each stage has a node per (layer, config);
/// a node at layer l has one stay edge per layer-l successor and
/// (num_configs - 1) change edges into layer l+1.
///
/// Counts saturate at INT64_MAX instead of overflowing — the product
/// n * (k+1) * |C|^2 exceeds int64 for plausible inputs (e.g.
/// k = INT64_MAX), and a reporting function must not wrap to a
/// nonsense (possibly negative) size. Inputs must be >= 0.
KAwareGraphSize ComputeKAwareGraphSize(int64_t num_stages,
                                       int64_t num_configs, int64_t k);

/// Predicted bytes of SolveKAware's DP working set over `candidates`
/// — the dist/next arrays (2 x layers x m doubles), the parent table
/// (n x layers x m 8-byte DpParent cells), the boundary transition
/// vectors, and on the lattice path its 2^u values and argmins
/// (RelaxScratchBytes) — using the same layer clamp the solver applies
/// (layers = min(k, n - 1 + count_initial_change) + 1). This is the
/// model the explain report quotes against the measured
/// MemComponent::kKAwareTable peak, and the figure a caller should
/// budget when sizing SolveOptions::memory_limit_bytes; saturates at
/// INT64_MAX. The O(k n 2^{2m}) space bound of §3 is this quantity
/// with m = 2^{2m'} candidate configurations.
int64_t PredictKAwareTableBytes(int64_t num_stages,
                                const CandidateSpace& candidates, int64_t k,
                                bool count_initial_change);

/// Optimal *constrained* dynamic physical design (§3, the paper's
/// contribution): shortest path through the k-aware sequence graph,
/// whose layer l holds the cheapest ways to reach a stage with at most
/// l design changes. Staying in the same configuration keeps the
/// layer; switching configurations moves one layer down. The paper's
/// scan runs in O(k * n * |C|^2) time (= O(k n 2^{2m})); over an
/// exact-mask space where it pays, the relaxation kernel instead
/// prices change edges with a subset-lattice transform in
/// O(k * n * u * 2^u) for u universe indexes (core/relax_stage.h).
/// Returns a schedule with at most k changes under the problem's
/// change-counting policy.
///
/// The solve first precomputes the dense EXEC/TRANS cost matrices
/// (WhatIfEngine::PrecomputeCostMatrix, fanned out across `pool` when
/// one is given) and then relaxes each stage's (layer, config) cells
/// with the serial RelaxKernel. The schedule, cost, and stats are
/// identical for any thread count. The reported cost is the chosen
/// path re-priced in EvaluateScheduleCost's order (PricePath), so it
/// equals EvaluateScheduleCost bit for bit.
///
/// k must be >= 0. A bound larger than the most changes any schedule
/// can make (n - 1 interior changes, plus the initial build when it
/// counts) is clamped to that maximum, so huge k costs no extra layers
/// and cannot overflow the DP table sizing; a table that would still
/// not fit in int64 cells is rejected with InvalidArgument *before*
/// any allocation.
///
/// `stats`, `pool`, and `tracer` are optional; with a tracer the solve
/// records one "kaware.precompute" and one "kaware.dp" span (arg = the
/// n - 1 relaxed stages), whatever n is (timestamps only — results are
/// unchanged).
///
/// `budget` (optional) bounds the solve; expiry is polled between
/// precompute blocks and DP stages. Anytime semantics — on expiry
/// mid-DP the cheapest completed prefix is frozen (its best
/// end-of-prefix (layer, config) cell is held for the remaining
/// stages, which adds no changes, so the k bound still holds) and
/// returned with stats->deadline_hit set; DeadlineExceeded when the
/// budget expires before any feasible schedule can be priced. A budget
/// that never expires changes nothing: the schedule is byte-identical
/// to an un-budgeted run.
///
/// `progress` receives "whatif.precompute" / "kaware.dp" updates at
/// the existing poll sites (thread-safe callback required; see
/// common/progress.h); `logger` records phase start/end and
/// anytime-fallback events. Both optional, both observational only.
///
/// `tracker` (optional) accounts the big allocations — the dense cost
/// matrix (kCostMatrix) and the DP tables (kKAwareTable). When the
/// tracker carries a soft byte limit that a reservation would pass,
/// the solve degrades instead of allocating: it returns
/// BestStaticSchedule (flagged best_effort/deadline_hit) rather than
/// building tables it has no budget for.
Result<DesignSchedule> SolveKAware(const DesignProblem& problem, int64_t k,
                                   SolveStats* stats = nullptr,
                                   ThreadPool* pool = nullptr,
                                   Tracer* tracer = nullptr,
                                   const Budget* budget = nullptr,
                                   const ProgressFn* progress = nullptr,
                                   Logger* logger = nullptr,
                                   ResourceTracker* tracker = nullptr);

}  // namespace cdpd

#endif  // CDPD_CORE_K_AWARE_GRAPH_H_
