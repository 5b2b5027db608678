#ifndef CDPD_CORE_HYBRID_OPTIMIZER_H_
#define CDPD_CORE_HYBRID_OPTIMIZER_H_

#include <cstdint>
#include <string>

#include "common/budget.h"
#include "common/log.h"
#include "common/progress.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "core/design_problem.h"
#include "core/solve_stats.h"

namespace cdpd {

/// Which technique the hybrid optimizer selected.
enum class HybridChoice {
  kUnconstrainedSufficed,  // The unconstrained optimum already has <= k
                           // changes.
  kKAwareGraph,            // Small k: the layered graph is cheap.
  kMerging,                // Large k: few merging steps suffice.
};

std::string_view HybridChoiceToString(HybridChoice choice);

struct HybridResult {
  DesignSchedule schedule;
  HybridChoice choice = HybridChoice::kUnconstrainedSufficed;
  /// Changes of the unconstrained optimum (the l of §4.2).
  int64_t unconstrained_changes = 0;
  /// Cost of the unconstrained optimum the probe computed — the lower
  /// bound the explain report quotes as the optimality-gap baseline.
  double unconstrained_cost = 0.0;
  /// Unified counters accumulated over both phases (unconstrained
  /// probe plus the chosen constrained technique).
  SolveStats stats;
};

/// The hybrid strategy §6.4 suggests: Figure 4 shows the k-aware
/// graph's cost growing linearly in k while merging's cost shrinks as
/// k approaches the unconstrained change count l. The hybrid first
/// solves the unconstrained problem (cheap, and merging needs it
/// anyway); if its change count l <= k it is returned as-is. Otherwise
/// the work estimates
///
///   k-aware graph:  (k+1) * n * |C|^2        relaxations
///   merging:        |C| * (l^2 - k^2) / 2    candidate evaluations
///
/// are compared and the cheaper technique runs. Merging is heuristic,
/// so the hybrid trades optimality for speed exactly where Figure 4
/// shows the optimal technique becoming expensive.
///
/// Both phases fan their cost probes out across `pool` when one is
/// given; results are identical for any thread count. With a `tracer`
/// the solve records a "hybrid.probe" span around the unconstrained
/// probe and a "hybrid.kaware" or "hybrid.merge" span around the
/// chosen constrained phase.
///
/// Resilience: when the chosen constrained technique fails, the hybrid
/// retries the other one before surfacing an error — a failure of one
/// branch must never hide an answer the other branch can give. With a
/// `budget`, the probe and the constrained phase share it; if the
/// budget is already spent after the probe the hybrid goes straight to
/// merging, whose static fallback answers immediately, and the result
/// carries stats.deadline_hit. A budget that never expires changes
/// nothing: the result is byte-identical to an un-budgeted run.
///
/// `progress` receives the phases' updates (probe, then the chosen
/// constrained technique; thread-safe callback required — see
/// common/progress.h); `logger` records the branch choice with both
/// work estimates, plus the phases' own events. Both optional, both
/// observational only.
///
/// `tracker` (optional) flows into both phases, which charge their own
/// allocation classes (kCostMatrix, kSequenceGraph, kKAwareTable,
/// kMergingTable); the hybrid itself allocates nothing tracked.
Result<HybridResult> SolveHybrid(const DesignProblem& problem, int64_t k,
                                 ThreadPool* pool = nullptr,
                                 Tracer* tracer = nullptr,
                                 const Budget* budget = nullptr,
                                 const ProgressFn* progress = nullptr,
                                 Logger* logger = nullptr,
                                 ResourceTracker* tracker = nullptr);

}  // namespace cdpd

#endif  // CDPD_CORE_HYBRID_OPTIMIZER_H_
