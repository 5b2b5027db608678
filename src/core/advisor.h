#ifndef CDPD_CORE_ADVISOR_H_
#define CDPD_CORE_ADVISOR_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "advisor/candidate_generation.h"
#include "advisor/config_enumeration.h"
#include "common/result.h"
#include "core/design_problem.h"
#include "core/solver.h"
#include "cost/cost_model.h"
#include "workload/adaptive_segmenter.h"
#include "workload/workload.h"

namespace cdpd {

/// How the workload is cut into stages S_1..S_n.
enum class SegmentationMode {
  kFixedBlocks,  // Fixed-size blocks of `block_size` statements.
  kAdaptive,     // Distribution-driven variable-length stages
                 // (workload/adaptive_segmenter.h).
};

/// Everything that parameterizes one recommendation run.
struct AdvisorOptions {
  /// Statements per stage (block size); 1 recovers the paper's
  /// per-statement formulation, 500 matches Table 2's reporting.
  size_t block_size = 500;
  SegmentationMode segmentation = SegmentationMode::kFixedBlocks;
  /// Adaptive-mode parameters; base_block_size = 0 inherits
  /// block_size.
  AdaptiveSegmentOptions adaptive = {.base_block_size = 0};
  /// Change bound k; nullopt = unconstrained (the old -1 sentinel is
  /// gone — Validate() rejects negative values).
  std::optional<int64_t> k;
  OptimizerMethod method = OptimizerMethod::kOptimal;
  /// Worker threads for the what-if precompute and the solver sweeps;
  /// 0 = CDPD_THREADS / hardware default, 1 = serial. The
  /// recommendation is identical for any value.
  int num_threads = 0;
  /// Space bound b in pages.
  int64_t space_bound_pages = std::numeric_limits<int64_t>::max();
  /// Indexes per configuration (1 = the paper's experimental space).
  int32_t max_indexes_per_config = 1;
  /// See DesignProblem::count_initial_change.
  bool count_initial_change = false;
  Configuration initial_config;
  std::optional<Configuration> final_config;
  /// Candidate indexes; empty = generate syntactically from the
  /// workload (advisor/candidate_generation.h).
  std::vector<IndexDef> candidate_indexes;
  CandidateGenOptions candidate_gen;
  /// Enumeration cap for the ranking method.
  int64_t ranking_max_paths = 1'000'000;
  /// Observability sinks in one bundle, forwarded to
  /// SolveOptions::observability (see common/observability.h). All
  /// optional, all borrowed; `metrics` additionally receives the
  /// what-if engine's "whatif.*" counters and histogram, and the
  /// advisor adds its own "advisor.*" log events (segmentation and
  /// candidate-space sizes) around the solve. The progress callback
  /// must be thread-safe (see common/progress.h). None perturb the
  /// recommendation.
  Observability observability;
  /// Dominance pruning and segment-parallel solving, forwarded to
  /// SolveOptions::prune_dominated / SolveOptions::segmented.
  bool prune_dominated = false;
  SegmentSolveOptions segmented;
  /// Build the per-transition EXEC/TRANS attribution into
  /// Recommendation::explain (see core/explain.h).
  bool explain = false;
  /// Wall-clock budget and cooperative cancellation for the solve,
  /// forwarded to SolveOptions::deadline / SolveOptions::cancel (the
  /// segmentation and candidate-generation phases are not covered —
  /// they are cheap relative to the solve). On expiry the
  /// recommendation carries the solver's best feasible schedule so
  /// far, flagged in stats.deadline_hit.
  std::optional<std::chrono::milliseconds> deadline;
  const CancelToken* cancel = nullptr;
  /// Soft byte budget for the solve's tracked allocations, forwarded
  /// to SolveOptions::memory_limit_bytes. An over-budget solve
  /// degrades to the best schedule it can build within budget, flagged
  /// in stats.memory_limit_hit; nullopt = no limit (the allocations
  /// are still tracked into stats.peak_bytes_total).
  std::optional<int64_t> memory_limit_bytes;

  /// All option validation in one place (block size, change bound,
  /// space bound, thread count, enumeration cap, deadline); Recommend
  /// calls it first, replacing the old scattered ad-hoc checks.
  Status Validate() const;
};

/// A recommendation: the design schedule plus everything needed to
/// interpret and reproduce it.
struct Recommendation {
  DesignSchedule schedule;
  std::vector<Segment> segments;
  std::vector<IndexDef> candidate_indexes;
  std::vector<Configuration> candidate_configs;
  int64_t changes = 0;
  /// Unified solver counters (wall time, what-if costings, threads
  /// used, nodes expanded).
  SolveStats stats;
  /// Technique detail (e.g. which branch the hybrid picked).
  std::string method_detail;
  /// Per-transition attribution of the schedule (set iff
  /// AdvisorOptions::explain). Render with ExplainReport::ToText /
  /// ToJson against the model's schema.
  std::optional<ExplainReport> explain;
};

/// One-call entry point to the constrained dynamic physical design
/// advisor: segments the workload, builds the what-if oracle and the
/// candidate configuration space, runs the selected optimizer through
/// the unified Solve() API, and validates the resulting schedule.
class Advisor {
 public:
  /// `model` must outlive the advisor.
  explicit Advisor(const CostModel* model) : model_(model) {}

  Result<Recommendation> Recommend(const Workload& workload,
                                   const AdvisorOptions& options) const;

 private:
  const CostModel* model_;
};

}  // namespace cdpd

#endif  // CDPD_CORE_ADVISOR_H_
