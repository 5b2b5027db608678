#include "core/advisor.h"

#include "core/validator.h"

namespace cdpd {

Status AdvisorOptions::Validate() const {
  if (block_size == 0) {
    return Status::InvalidArgument("block_size must be positive");
  }
  if (space_bound_pages <= 0) {
    return Status::InvalidArgument("space_bound_pages must be positive");
  }
  if (max_indexes_per_config < 1) {
    return Status::InvalidArgument("max_indexes_per_config must be >= 1");
  }
  return Status::OK();
}

Result<Recommendation> Advisor::Recommend(const Workload& workload,
                                          const AdvisorOptions& options) const {
  CDPD_RETURN_IF_ERROR(options.Validate());
  Logger* const logger = options.solve.observability.logger;

  Recommendation rec;
  if (options.segmentation == SegmentationMode::kAdaptive) {
    AdaptiveSegmentOptions adaptive = options.adaptive;
    if (adaptive.base_block_size == 0) {
      adaptive.base_block_size = options.block_size;
    }
    rec.segments =
        SegmentAdaptive(model_->schema(), workload.Span(), adaptive);
  } else {
    rec.segments = SegmentFixed(workload.size(), options.block_size);
  }

  CDPD_LOG(logger, LogLevel::kInfo, "advisor.segmented",
           LogField("statements", workload.size()),
           LogField("segments", rec.segments.size()),
           LogField("adaptive",
                    options.segmentation == SegmentationMode::kAdaptive));

  // Candidate indexes: given or generated from the workload.
  rec.candidate_indexes = options.candidate_indexes;
  if (rec.candidate_indexes.empty()) {
    rec.candidate_indexes =
        GenerateCandidateIndexes(model_->schema(), workload.Span(),
                                 rec.segments, options.candidate_gen);
  }

  // Candidate configurations under the space bound.
  ConfigEnumOptions enum_options;
  enum_options.max_indexes_per_config = options.max_indexes_per_config;
  enum_options.space_bound_pages = options.space_bound_pages;
  enum_options.num_rows = model_->num_rows();
  CDPD_ASSIGN_OR_RETURN(
      rec.candidate_configs,
      EnumerateConfigurations(rec.candidate_indexes, enum_options));

  CDPD_LOG(logger, LogLevel::kInfo, "advisor.candidates",
           LogField("candidate_indexes", rec.candidate_indexes.size()),
           LogField("candidate_configs", rec.candidate_configs.size()));

  WhatIfEngine what_if(model_, workload.Span(), rec.segments);
  DesignProblem problem;
  problem.what_if = &what_if;
  problem.candidates = rec.candidate_configs;
  problem.initial = options.initial_config;
  problem.final_config = options.final_config;
  problem.space_bound_pages = options.space_bound_pages;
  problem.count_initial_change = options.count_initial_change;

  SolveOptions solve_options = options.solve;
  solve_options.greedy.candidate_indexes = rec.candidate_indexes;
  solve_options.greedy.max_indexes_per_config = options.max_indexes_per_config;

  CDPD_ASSIGN_OR_RETURN(SolveResult solved, Solve(problem, solve_options));
  rec.schedule = std::move(solved.schedule);
  rec.stats = solved.stats;
  rec.method_detail = std::move(solved.method_detail);
  rec.explain = std::move(solved.explain);
  if (!solved.reduced_candidates.empty()) {
    // GREEDY-SEQ searched its own reduced configuration set; report
    // that set so the recommendation is reproducible.
    rec.candidate_configs = std::move(solved.reduced_candidates);
    problem.candidates = rec.candidate_configs;
  }

  rec.changes = CountChanges(problem, rec.schedule.configs);
  CDPD_RETURN_IF_ERROR(
      ValidateSchedule(problem, rec.schedule, options.solve.k));
  return rec;
}

}  // namespace cdpd
