#ifndef CDPD_CORE_EXPLAIN_H_
#define CDPD_CORE_EXPLAIN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/configuration.h"
#include "core/design_problem.h"
#include "core/solve_stats.h"
#include "storage/schema.h"

namespace cdpd {

/// One design transition of a schedule, attributed: what physical work
/// it pays for, what execution savings it buys, and when (if ever) it
/// pays for itself.
struct ExplainTransition {
  /// Index of the first segment executed under `to`. For the final
  /// destination-constraint transition this is num_segments (no
  /// segment runs under it).
  size_t segment = 0;
  /// 0-based index of the first workload statement executed under
  /// `to` (segments[segment].begin); total statement count for the
  /// final transition.
  size_t first_statement = 0;
  /// One past the last segment of the run this transition opens (the
  /// stretch of consecutive segments holding `to`), and the matching
  /// 0-based statement bound (segments[run_end - 1].end).
  size_t run_end = 0;
  size_t run_end_statement = 0;
  Configuration from;
  Configuration to;
  /// The physical work TRANS(from, to) prices.
  std::vector<IndexDef> built;
  std::vector<IndexDef> dropped;
  /// TRANS(from, to).
  double trans_cost = 0.0;
  /// Execution savings the new design earns over its run:
  /// Σ_{j in [segment, run_end)} EXEC(S_j, from) − EXEC(S_j, to),
  /// i.e. versus having stayed in the previous design. Negative when
  /// the change positions for a later payoff (or a final constraint).
  double exec_savings = 0.0;
  /// Number of workload statements executed (from the start of the
  /// workload) by the time cumulative savings first reach trans_cost;
  /// unset when the run ends before the transition is recouped.
  std::optional<size_t> break_even_statement;
  /// Whether this transition counts against the change bound k (the
  /// initial build and the final constrained transition usually don't;
  /// see DesignProblem::count_initial_change).
  bool counts_against_k = false;
  /// "initial" (C0 -> C1), "interior", or "final" (C_n -> final).
  std::string_view kind = "interior";
};

/// Per-statement EXEC/TRANS attribution of one solved schedule — the
/// explainable-solve artifact Solve() builds when
/// SolveOptions::explain is set, and `advisor_cli --explain` renders.
/// Totals are recomputed from the what-if oracle in exactly
/// EvaluateScheduleCost's summation order, so `total_cost` matches the
/// solver-reported schedule cost bit-for-bit for every method whose
/// reported cost comes from that order (all of them; `exact` records
/// whether the match held).
struct ExplainReport {
  /// JSON schema version emitted by ToJson (bump on breaking change).
  static constexpr int kSchemaVersion = 1;

  std::string method;
  std::string method_detail;
  std::optional<int64_t> k;
  int64_t changes_used = 0;
  size_t num_segments = 0;
  size_t num_statements = 0;

  /// Σ EXEC(S_i, C_i) over all segments.
  double exec_total = 0.0;
  /// Σ TRANS over all transitions (including zero-cost no-ops and the
  /// final constrained transition).
  double trans_total = 0.0;
  /// The interleaved EvaluateScheduleCost-order sum; the number the
  /// attribution explains.
  double total_cost = 0.0;
  /// DesignSchedule::total_cost as the solver reported it.
  double solver_reported_cost = 0.0;
  /// total_cost == solver_reported_cost, bit-for-bit.
  bool exact = false;

  /// The unconstrained optimum, when the method computed one on the
  /// way (kOptimal/merging/hybrid and every unconstrained dispatch).
  std::optional<double> unconstrained_cost;
  /// total_cost − unconstrained_cost: the price of the change budget.
  /// Present iff unconstrained_cost is.
  std::optional<double> optimality_gap;

  /// Provenance: whether the schedule is an anytime fallback.
  bool deadline_hit = false;
  bool best_effort = false;
  SolveStats stats;

  /// Space-bound validation (§3's O(k·n·2^{2m}) claim, measured):
  /// the k-aware DP table footprint PredictKAwareTableBytes computes
  /// from the problem dimensions, versus the bytes the solve actually
  /// reserved against MemComponent::kKAwareTable. `predicted` is 0 for
  /// unconstrained solves (no layered table exists); `actual` is 0
  /// when the method never built the table (ranking, merging) or
  /// tracking found nothing to charge. The renderers print the
  /// actual/predicted ratio when both are present — the number the
  /// space-validation experiment in EXPERIMENTS.md asserts stays
  /// within 2x.
  int64_t predicted_kaware_bytes = 0;
  int64_t actual_kaware_bytes = 0;

  std::vector<ExplainTransition> transitions;

  /// Human-readable report: summary block plus one aligned row per
  /// transition (statement, builds/drops, TRANS paid, EXEC saved,
  /// break-even).
  std::string ToText(const Schema& schema) const;
  /// {"schema_version": 1, "kind": "cdpd.explain", "summary": {...},
  ///  "stats": {...}, "transitions": [...]}.
  std::string ToJson(const Schema& schema) const;
};

/// Builds the attribution for `schedule` against `problem`'s oracle.
/// Pure read-side analysis: prices one shape-cost column per distinct
/// configuration the schedule visits (|shapes| costings each), never
/// mutates the schedule, and is deterministic. `method`,
/// `method_detail`, `k`, `stats`, and `unconstrained_cost` are carried
/// through from the solve that produced the schedule.
ExplainReport BuildExplainReport(const DesignProblem& problem,
                                 const DesignSchedule& schedule,
                                 std::string_view method,
                                 std::string_view method_detail,
                                 std::optional<int64_t> k,
                                 const SolveStats& stats,
                                 std::optional<double> unconstrained_cost);

}  // namespace cdpd

#endif  // CDPD_CORE_EXPLAIN_H_
