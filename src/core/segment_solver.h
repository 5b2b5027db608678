#ifndef CDPD_CORE_SEGMENT_SOLVER_H_
#define CDPD_CORE_SEGMENT_SOLVER_H_

#include <cstdint>

#include "common/budget.h"
#include "common/log.h"
#include "common/progress.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "core/design_problem.h"
#include "core/solve_stats.h"
#include "cost/cost_cache.h"

namespace cdpd {

/// Knobs of the segment-parallel k-aware solver (SolveOptions embeds
/// one; only read for OptimizerMethod::kOptimal with a finite k).
struct SegmentSolveOptions {
  /// How many consecutive chunks to split the stage sequence into.
  /// 0 = automatic, which today is always the monolithic pass: it is
  /// the cheapest exact solve, and the segmented solver re-runs every
  /// chunk DP once per entry configuration (about (m + 1)x the
  /// relaxations);
  /// 1 = always monolithic (the segmented path is off);
  /// >= 2 = forced (clamped to the stage count): the DP's parent table
  /// shrinks to the largest chunk's stages, a memory bound the caller
  /// buys with the extra relaxations. The cost is exact for every
  /// value, and the chunk count never depends on the thread count, so
  /// results stay identical for any number of workers.
  int num_chunks = 0;

  Status Validate() const;
};

/// The chunk count SolveKAware(Segmented) will use for `num_stages` DP
/// stages under `options` (after clamping); <= 1 means the monolithic
/// SolveKAware runs. Automatic mode returns 1. Reads no thread count,
/// so the schedule stays identical for any number of workers.
size_t ResolveNumChunks(const SegmentSolveOptions& options,
                        size_t num_stages);

/// Exact segment-parallel variant of SolveKAware for long stage
/// sequences: the n stages are split into `num_chunks` consecutive
/// chunks (balanced by statement weight via SplitStagesBalanced, so
/// boundaries respect adaptive segmentation), each chunk is solved as
/// an independent layered DP *per entry configuration* in parallel on
/// `pool`, and a small boundary DP stitches the per-chunk tables back
/// together, apportioning the change budget k across chunks.
///
/// Why this is exact: any schedule decomposes at the chunk boundaries
/// into (entry config e_t, changes-used c_t, exit config x_t) per
/// chunk, where e_t = x_{t-1} and the boundary transition is charged
/// to chunk t (its first stage enters at layer 1 unless it keeps e_t).
/// Phase A computes, for every chunk and every entry, the exact
/// minimum chunk cost per (at most changes, exit) cell — the same
/// RelaxKernel as SolveKAware, serial within a chunk task. Phase B's
/// stitch DP minimizes over all (e_t, c_t) splits with Σ c_t <= k.
/// Phase C re-solves each chunk for its chosen entry with a parent
/// table and extracts the optimal path. Every phase runs in a fixed
/// order, so the schedule is identical for any thread count; the cost
/// equals the monolithic DP optimum (the reported total is the path
/// re-priced by PricePath, bit-identical to EvaluateScheduleCost).
///
/// Compared to the monolithic DP this performs up to (m + 1)x the
/// relax work (one chunk DP per entry config, plus the rebuild). Phase
/// C runs serially through one parent table sized for the largest
/// chunk, so the solve holds about 1/num_chunks of the monolithic
/// parent table (plus the per-entry chunk summaries, num_chunks x m x
/// (k + 1) x m doubles) and its kKAwareTable reservation charges only
/// that: under a memory limit the monolithic table passes, enough
/// chunks still solve exactly. Phase A's chunk tasks run in parallel
/// on `pool`. Only explicit chunk counts reach it (ResolveNumChunks).
///
/// Anytime/memory semantics mirror SolveKAware coarsely: a budget
/// expiry or a refused table reservation degrades to
/// BestStaticSchedule flagged deadline_hit/best_effort (the chunk
/// tables do not admit the monolithic prefix freeze). Stats adds
/// segment_chunks and stitch_window. num_chunks must be >= 2 and
/// <= the stage count (callers resolve via ResolveNumChunks and
/// dispatch to SolveKAware otherwise).
Result<DesignSchedule> SolveKAwareSegmented(
    const DesignProblem& problem, int64_t k, size_t num_chunks,
    SolveStats* stats = nullptr, ThreadPool* pool = nullptr,
    Tracer* tracer = nullptr, const Budget* budget = nullptr,
    const ProgressFn* progress = nullptr, Logger* logger = nullptr,
    ResourceTracker* tracker = nullptr, CostCache* cost_cache = nullptr);

}  // namespace cdpd

#endif  // CDPD_CORE_SEGMENT_SOLVER_H_
