#ifndef CDPD_CORE_SOLVER_H_
#define CDPD_CORE_SOLVER_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/budget.h"
#include "common/observability.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/design_problem.h"
#include "core/explain.h"
#include "core/greedy_seq.h"
#include "core/solve_stats.h"

namespace cdpd {

/// The solution technique to run (§3–§5 of the paper plus the hybrid
/// §6.4 suggests).
enum class OptimizerMethod {
  kOptimal,    // Sequence graph (unconstrained) / k-aware sequence graph.
  kGreedySeq,  // GREEDY-SEQ candidate reduction, then k-aware graph.
  kMerging,    // Unconstrained optimum refined by sequential merging.
  kRanking,    // Shortest-path ranking until <= k changes.
  kHybrid,     // k-aware graph for small k, merging for large k.
};

std::string_view OptimizerMethodToString(OptimizerMethod method);

/// The inverse of OptimizerMethodToString: parses the wire/CLI spelling
/// ("optimal" | "greedy-seq" | "merging" | "ranking" | "hybrid").
/// Shared by the RECOMMEND request parser and the journal replay
/// harness so a recorded method name round-trips exactly.
Result<OptimizerMethod> OptimizerMethodFromString(std::string_view name);

/// How Solve() bounds the memory of the k-aware DP (SolveOptions
/// embeds one; only read for OptimizerMethod::kOptimal with k set).
struct SegmentSolveOptions {
  /// Checkpoint blocks of the DP (SolveKAware's num_blocks). 0 =
  /// automatic and 1 both run the DP in one block, which keeps every
  /// parent row; N >= 2 (clamped to the n - 1 relaxed stages) keeps one
  /// block's parent rows plus N - 1 saved layers of DP values, and
  /// re-relaxes every stage before the last block once more during the
  /// backtrack. The schedule and cost are identical for every value
  /// and thread count.
  int num_chunks = 0;

  Status Validate() const;
};

/// Everything that parameterizes one Solve() call, uniform across the
/// five techniques. Solve() is the one entry point to all five; of the
/// pieces it composes only SolveKAware (core/k_aware_graph.h) and
/// MergeToConstraint (core/design_merging.h) are public, for tests and
/// benches that exercise one phase alone.
struct SolveOptions {
  OptimizerMethod method = OptimizerMethod::kOptimal;
  /// Change bound k; nullopt = unconstrained (no magic -1 sentinel).
  std::optional<int64_t> k;
  /// Worker threads for the what-if precompute and the DP sweeps.
  /// 0 = ThreadPool::DefaultThreadCount() (the CDPD_THREADS
  /// environment variable, else the hardware concurrency); 1 = serial;
  /// at most ThreadPool::kMaxThreads. Results are identical for any
  /// value.
  int num_threads = 0;
  /// Borrowed worker pool (optional — must outlive the Solve call).
  /// When set it overrides num_threads and the solve spins up no pool
  /// of its own; this is how AdvisorService amortizes thread start-up
  /// across repeated Solve() calls. Safe to share across sequential
  /// and concurrent solves; results are identical either way.
  ThreadPool* pool = nullptr;
  /// Enumeration cap for the ranking method.
  int64_t ranking_max_paths = 1'000'000;
  /// GREEDY-SEQ parameters (candidate indexes + per-config cap); only
  /// read when method == kGreedySeq.
  GreedySeqOptions greedy;
  /// The observability sinks in one bundle (all optional, all
  /// borrowed — must outlive the Solve call; see
  /// common/observability.h). `metrics` receives the "solver.*"
  /// counters (via SolveStats::PublishTo), the what-if engine's
  /// "whatif.*" metrics, and the owned pool's "threadpool.*" metrics;
  /// `tracer` records a "solve" span plus per-phase solver spans;
  /// `logger` gets phase start/end events, candidate-set sizes,
  /// anytime-fallback warnings, and deadline hits; `progress` is
  /// invoked at the solvers' budget poll sites (MUST be thread-safe —
  /// precompute shards report from worker threads). Unset sinks cost
  /// one pointer test per site. None perturb results: schedules,
  /// costs, and counters are byte-identical with or without them, for
  /// any thread count.
  Observability observability;

  /// Drop candidate configurations that provably cannot appear in any
  /// optimal schedule (see advisor/dominance.h for the exactness
  /// argument) before dispatching to the method. Exact for every
  /// method: the optimal cost is unchanged, though a method may return
  /// a different cost-identical schedule when the pruned configuration
  /// was one of several optima. The pruning pass probes O(shapes * m +
  /// m^2) costs up front — worth it when m is large or n is huge
  /// (every DP stage then scans fewer configs), skippable when m is
  /// already tiny. stats.pruned_configs reports the drop count.
  bool prune_dominated = false;

  /// Checkpoint blocks of the k-aware DP (method == kOptimal with k set
  /// only; see SegmentSolveOptions). The default runs one block; an
  /// explicit num_chunks >= 2 bounds the DP's parent table to one
  /// block's rows. The schedule is the same either way.
  SegmentSolveOptions segmented;

  /// Build a per-transition EXEC/TRANS attribution of the returned
  /// schedule into SolveResult::explain (see core/explain.h). Costs
  /// one extra pass over the schedule after the solve (|shapes|
  /// costings per distinct configuration); never changes the schedule.
  bool explain = false;

  /// Wall-clock budget for the whole solve (measured from Solve()
  /// entry). On expiry the solve returns the best feasible schedule it
  /// has found so far — flagged with SolveResult::stats.deadline_hit —
  /// and fails with DeadlineExceeded only when nothing feasible exists
  /// yet (see DESIGN.md §6d for each method's anytime fallback).
  /// nullopt = no deadline; checking is free in that case (one null
  /// pointer test per poll site).
  std::optional<std::chrono::milliseconds> deadline;
  /// Cooperative cancellation (optional, borrowed — must outlive the
  /// Solve call). Cancel() makes the solve wind down at its next poll
  /// site with the same anytime semantics as a deadline expiry; safe
  /// to call from any thread.
  const CancelToken* cancel = nullptr;

  /// Soft byte budget over the solve's tracked allocations (the
  /// what-if cost matrix, the DP tables, the sequence graph, the
  /// ranking queue, the greedy candidate set, the merging tables).
  /// When a reservation would pass the budget the solve degrades
  /// through the same anytime machinery as a deadline — it returns the
  /// best feasible schedule it can build within budget, flagged with
  /// stats.memory_limit_hit, and never overshoots by more than the one
  /// allocation block that tripped the flag. nullopt = no limit
  /// (allocations are still tracked, for stats.peak_bytes_total).
  std::optional<int64_t> memory_limit_bytes;

  /// All option validation in one place: k >= 0 when set,
  /// 0 <= num_threads <= ThreadPool::kMaxThreads, ranking_max_paths >
  /// 0, deadline >= 0 when set, memory_limit_bytes > 0 when set, greedy
  /// candidate indexes present for kGreedySeq, and
  /// segmented.num_chunks >= 0 (segmented.Validate()).
  Status Validate() const;
};

/// Uniform outcome of a Solve() call.
struct SolveResult {
  DesignSchedule schedule;
  /// Unified counters for every method. Solve() sets the solve-wide
  /// ones (wall and CPU time, costings, threads used, memory); the
  /// method sets its own (nodes expanded, relaxations, paths, merge
  /// steps, ...).
  SolveStats stats;
  /// Technique detail (e.g. which branch the hybrid picked).
  std::string method_detail;
  /// kGreedySeq only: the reduced configuration set the graph search
  /// actually ran on (empty for every other method).
  std::vector<Configuration> reduced_candidates;
  /// The tracer the solve recorded into (==
  /// SolveOptions::observability.tracer; null when tracing was off).
  /// Export its spans with Tracer::ToChromeJson() / ToTextTree().
  Tracer* tracer = nullptr;
  /// Cost of the unconstrained optimum, when the method computed one
  /// on the way (every unconstrained dispatch, merging's first phase,
  /// and the hybrid's probe). The explain report quotes it as the
  /// optimality-gap baseline; absent when the method never priced the
  /// unconstrained problem (k-aware graph, ranking with a bound).
  std::optional<double> unconstrained_cost;
  /// Per-transition attribution of `schedule` (set iff
  /// SolveOptions::explain). Render with ExplainReport::ToText /
  /// ToJson.
  std::optional<ExplainReport> explain;
};

/// The unified solver entry point: dispatches to the technique
/// `options.method` selects, handling the unconstrained case
/// (options.k == nullopt) once — every method but GREEDY-SEQ, which
/// searches its own reduced candidate set, returns the plain
/// sequence-graph optimum (SolveKAware with k unset), which is exact
/// for all of them. A thread pool of options.num_threads workers is
/// spun up for the what-if precompute and the parallel DP sweeps;
/// schedules and costs are identical for any thread count. Solve()
/// builds the solve's shared state once (pool, budget, resource
/// tracker and sinks, one common/solve_context.h SolveContext) and
/// hands it to every phase.
///
/// With options.deadline / options.cancel set the solve is *anytime*:
/// expiry or cancellation makes it return its best feasible schedule
/// so far with stats.deadline_hit = true (published as the
/// "solver.deadline_hit" metric), or DeadlineExceeded when nothing
/// feasible has been found yet. A deadline that never fires leaves
/// the result byte-identical to an undeadlined run.
Result<SolveResult> Solve(const DesignProblem& problem,
                          const SolveOptions& options);

}  // namespace cdpd

#endif  // CDPD_CORE_SOLVER_H_
