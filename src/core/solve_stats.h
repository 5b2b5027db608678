#ifndef CDPD_CORE_SOLVE_STATS_H_
#define CDPD_CORE_SOLVE_STATS_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "common/resource_tracker.h"

namespace cdpd {

/// Counters common to every design solver, replacing the per-solver
/// ad-hoc stats structs. Each solver fills the fields that apply and
/// leaves the rest zero; the unified Solve() entry point
/// (core/solver.h) returns one of these for every method, and
/// Advisor::Recommend surfaces it on the Recommendation.
///
/// The struct doubles as the typed view of the observability layer's
/// "solver.*" metrics: Solve() publishes each solve into the injected
/// MetricsRegistry via PublishTo(), and FromSnapshot() reconstructs a
/// SolveStats from a registry snapshot — so external consumers of the
/// metrics export and in-process callers of Solve() read the same
/// numbers (the tests enforce the round trip). All four views walk one
/// field table in solve_stats.cc, so a field added there appears in
/// each of them.
struct SolveStats {
  /// Wall-clock time of the solve.
  double wall_seconds = 0.0;
  /// What-if statement costings performed during the solve (the
  /// dominant work unit of the optimizer-cost experiments).
  int64_t costings = 0;
  /// Always 0: every solve prices its shape columns with the cost
  /// model, so there is no cost cache to hit or miss. Kept only because
  /// the perfbench driver (perfbench/driver/serving.cc) still reads
  /// them; they are in no JSON, metric or accumulation.
  int64_t cost_cache_hits = 0;
  int64_t cost_cache_misses = 0;
  /// Worker threads the solve fanned out across (1 = serial).
  int threads_used = 1;
  /// DP states / graph nodes given a finite value (the k-aware and
  /// unconstrained DPs), or ranked-path tree nodes for ranking.
  int64_t nodes_expanded = 0;
  /// Updates the DP relaxation kernel performed (core/relax_stage.h),
  /// including the stages a checkpointed solve re-relaxes. Per stage and
  /// destination cell: one stay-edge update; then per layer with
  /// change edges, on the scan path one update per predecessor
  /// (m - 1 per cell), on the lattice path u * 2^u per-bit min-plus
  /// updates for the whole layer and one gathered comparison per cell.
  /// So the count tracks the work done, not the graph's edge count
  /// (ComputeKAwareGraphSize).
  int64_t relaxations = 0;
  /// Ranking only: source-to-destination paths enumerated.
  int64_t paths_enumerated = 0;
  /// Merging only: merge steps performed (each removes >= 1 change).
  int64_t merge_steps = 0;
  /// Merging/greedy: replacement or growth candidates evaluated.
  int64_t candidate_evaluations = 0;
  /// Candidate configurations eliminated by dominance pruning before
  /// the method ran (SolveOptions::prune_dominated); 0 when pruning
  /// was off or nothing was dominated.
  int64_t pruned_configs = 0;
  /// Checkpoint blocks the k-aware DP ran in (SolveKAware's
  /// num_blocks after its clamp; see SegmentSolveOptions); 0 when it
  /// ran in one block.
  int64_t segment_chunks = 0;
  /// The solve's deadline/cancellation budget expired and the schedule
  /// is the method's anytime fallback (the best feasible answer it had
  /// at expiry), not its normal result. Never set without a budget.
  bool deadline_hit = false;
  /// The schedule is a best-effort fallback rather than the method's
  /// normal result. Implied by deadline_hit; also set when the ranking
  /// method exhausts its enumeration cap and falls back (see
  /// SolveByRanking).
  bool best_effort = false;
  /// Process CPU time consumed over the solve (CLOCK_PROCESS_CPUTIME_ID
  /// delta) — covers the worker pool, so cpu_seconds well above
  /// wall_seconds means the parallel phases actually parallelised.
  /// 0 where the platform offers no process clock.
  double cpu_seconds = 0.0;
  /// High-water mark of the solve's tracked allocations, summed over
  /// components (the true concurrent peak, not the sum of the
  /// per-component peaks below). 0 when the solve tracked nothing.
  int64_t peak_bytes_total = 0;
  /// Per-component peaks, indexed by MemComponent (the what-if cost
  /// matrix, the k-aware DP table, the sequence graph, the ranking
  /// queue, the greedy candidate set, the merging tables).
  std::array<int64_t, kNumMemComponents> component_peak_bytes{};
  /// The solve's SolveOptions::memory_limit_bytes budget tripped and
  /// the schedule is an anytime fallback. Implies deadline_hit (memory
  /// expiry flows through the same Budget) and best_effort.
  bool memory_limit_hit = false;

  /// Accumulates another solve's counters (used by compound methods:
  /// hybrid, greedy-seq, merging-after-unconstrained). Counters and wall
  /// and CPU time add; threads_used, the decomposition shape and the
  /// peaks keep the maximum; the fallback flags OR.
  void Accumulate(const SolveStats& other);

  /// Copies `tracker`'s peaks into the memory fields (memory_limit_hit
  /// is set by Solve() from tracker.limit_exceeded(), not here, so a
  /// caller-owned tracker shared across solves doesn't mislabel them).
  void CaptureMemory(const ResourceTracker& tracker) {
    peak_bytes_total = tracker.peak_total();
    for (int i = 0; i < kNumMemComponents; ++i) {
      component_peak_bytes[i] =
          tracker.peak_bytes(static_cast<MemComponent>(i));
    }
  }

  /// Adds this solve's counters to the registry's "solver.*" metrics
  /// (and records the wall time into the "solver.solve_wall_us"
  /// histogram). No-op when `registry` is null.
  void PublishTo(MetricsRegistry* registry) const;

  /// The registry's accumulated "solver.*" counters as a SolveStats —
  /// the inverse of PublishTo over however many solves the registry
  /// has seen (wall_seconds is the total, threads_used the maximum).
  static SolveStats FromSnapshot(const MetricsSnapshot& snapshot);

  /// One flat JSON object, keyed like the "solver.*" metrics minus the
  /// prefix. Wall time is emitted as the integer "wall_us" — the same
  /// microsecond rounding PublishTo applies — so a publish/FromSnapshot
  /// round trip reproduces the JSON bit-for-bit (the tests enforce it).
  /// Embedded by the explain report and the bench_report artifacts.
  std::string ToJson() const;
};

}  // namespace cdpd

#endif  // CDPD_CORE_SOLVE_STATS_H_
