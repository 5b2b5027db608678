#include "core/design_merging.h"
#include "core/k_aware_graph.h"
#include "core/solver.h"

namespace cdpd {

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
/// shows the optimal technique becoming expensive. result->method_detail
/// names the choice ("hybrid chose unconstrained", "... k-aware-graph"
/// or "... merging"), and result->unconstrained_cost is the probe's
/// cost. Called only by Solve(), with options.k set.
///
/// The solve records a "hybrid.probe" span around the unconstrained
/// probe and a "hybrid.kaware" or "hybrid.merge" span around the chosen
/// constrained phase; both phases share ctx, so its pool, budget and
/// tracker cover the whole solve.
///
/// Resilience: when the chosen constrained technique fails, the hybrid
/// retries the other one before surfacing the first error — a failure
/// of one branch must never hide an answer the other branch can give.
/// If the budget is already spent after the probe the hybrid goes
/// straight to merging, whose static fallback answers immediately, and
/// the result carries stats.deadline_hit.
Status SolveHybrid(const DesignProblem& problem, const SolveOptions& options,
                   const SolveContext& ctx, SolveResult* result) {
  const int64_t k = *options.k;
  SolveStats& stats = result->stats;
  DesignSchedule unconstrained;
  {
    CDPD_TRACE_SPAN(ctx.tracer, "hybrid.probe", "solver");
    CDPD_ASSIGN_OR_RETURN(
        unconstrained, SolveKAware(problem, std::nullopt, &stats, ctx));
  }
  const int64_t l = CountChanges(problem, unconstrained.configs);
  result->unconstrained_cost = unconstrained.total_cost;
  if (l <= k) {
    CDPD_LOG(ctx.logger, LogLevel::kInfo, "hybrid.choice",
             LogField("choice", "unconstrained"),
             LogField("unconstrained_changes", l), LogField("k", k));
    result->schedule = std::move(unconstrained);
    result->method_detail = "hybrid chose unconstrained";
    return Status::OK();
  }

  const auto n = static_cast<double>(problem.num_segments());
  const auto c = static_cast<double>(problem.candidates.size());
  // l > k here, so k < l <= n + 1 and the int64 arithmetic is safe.
  const double graph_work = static_cast<double>(k + 1) * n * c * c;
  const double merging_work =
      c * (static_cast<double>(l * l - k * k)) / 2.0;

  // An already-spent budget forces the merging branch: its static
  // fallback answers immediately, whereas the k-aware DP would pay a
  // precompute only to return DeadlineExceeded.
  const bool prefer_kaware =
      graph_work <= merging_work && !BudgetExpired(ctx.budget);
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "hybrid.choice",
           LogField("choice", prefer_kaware ? "k-aware-graph" : "merging"),
           LogField("unconstrained_changes", l), LogField("k", k),
           LogField("graph_work", graph_work),
           LogField("merging_work", merging_work));

  const auto kaware = [&]() -> Status {
    CDPD_TRACE_SPAN(ctx.tracer, "hybrid.kaware", "solver", k);
    CDPD_ASSIGN_OR_RETURN(result->schedule,
                          SolveKAware(problem, k, &stats, ctx));
    result->method_detail = "hybrid chose k-aware-graph";
    return Status::OK();
  };
  const auto merge = [&]() -> Status {
    CDPD_TRACE_SPAN(ctx.tracer, "hybrid.merge", "solver", l - k);
    CDPD_ASSIGN_OR_RETURN(
        result->schedule,
        MergeToConstraint(problem, unconstrained, k, &stats, ctx));
    result->method_detail = "hybrid chose merging";
    return Status::OK();
  };
  // Whichever branch is chosen, a failure there must not hide an
  // answer the other branch can give; both failing surfaces the
  // chosen branch's error.
  const Status chosen = prefer_kaware ? kaware() : merge();
  if (chosen.ok()) return chosen;
  const Status other = prefer_kaware ? merge() : kaware();
  return other.ok() ? other : chosen;
}

}  // namespace cdpd
