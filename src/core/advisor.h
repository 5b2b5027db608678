#ifndef CDPD_CORE_ADVISOR_H_
#define CDPD_CORE_ADVISOR_H_

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
  /// The solve itself: method, change bound k, threads or a borrowed
  /// `pool` (which must outlive Recommend), sinks, pruning, checkpoint
  /// blocks, explain, deadline, cancellation and memory limit (see
  /// SolveOptions). Recommend passes it to Solve(), which validates it,
  /// after overwriting `solve.greedy` with `candidate_indexes` (as
  /// generated) and `max_indexes_per_config`: anything set in
  /// `solve.greedy` is ignored. The deadline does not cover
  /// segmentation and candidate generation, which are cheap next to the
  /// solve. The advisor adds its own "advisor.*" log events
  /// (segmentation and candidate-space sizes) to
  /// `solve.observability.logger`.
  SolveOptions solve;

  /// Validates the advisor's own fields (block size, space bound,
  /// indexes per configuration); Recommend calls it first, and Solve()
  /// validates `solve`.
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
  /// AdvisorOptions::solve.explain). Render with ExplainReport::ToText
  /// / ToJson against the model's schema.
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
