#include "core/design_merging.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>


namespace cdpd {

namespace {

/// A maximal run of consecutive segments executed under one
/// configuration.
struct Run {
  Configuration config;
  size_t begin = 0;  // First segment index.
  size_t end = 0;    // One past the last segment index.
  std::span<const double> column;  // `config`'s shape-cost column.
};

std::vector<Run> BuildRuns(const std::vector<Configuration>& configs) {
  std::vector<Run> runs;
  for (size_t i = 0; i < configs.size(); ++i) {
    if (!runs.empty() && runs.back().config == configs[i]) {
      runs.back().end = i + 1;
    } else {
      runs.push_back(Run{configs[i], i, i + 1, {}});
    }
  }
  return runs;
}

int64_t RunChanges(const DesignProblem& problem, const std::vector<Run>& runs) {
  if (runs.empty()) return 0;
  int64_t changes = static_cast<int64_t>(runs.size()) - 1;
  if (problem.count_initial_change &&
      !(runs.front().config == problem.initial)) {
    ++changes;
  }
  return changes;
}

/// Cost of the transition leaving the last run (forced final design),
/// or 0 when the destination is unconstrained.
double ExitCost(const DesignProblem& problem, const Configuration& last) {
  if (!problem.final_config.has_value()) return 0.0;
  return problem.what_if->TransitionCost(last, *problem.final_config);
}

}  // namespace

Result<DesignSchedule> MergeToConstraint(const DesignProblem& problem,
                                         const DesignSchedule& initial_schedule,
                                         int64_t k, SolveStats* stats,
                                         const SolveContext& ctx) {
  CDPD_RETURN_IF_ERROR(problem.Validate());
  if (k < 0) {
    return Status::InvalidArgument("change bound k must be >= 0");
  }
  if (initial_schedule.configs.size() != problem.num_segments()) {
    return Status::InvalidArgument(
        "initial schedule has " +
        std::to_string(initial_schedule.configs.size()) + " segments, problem has " +
        std::to_string(problem.num_segments()));
  }

  SolveStats unused_stats;
  SolveStats& out = stats != nullptr ? *stats : unused_stats;
  const WhatIfEngine& what_if = *problem.what_if;
  std::vector<Run> runs = BuildRuns(initial_schedule.configs);
  const int64_t initial_changes = RunChanges(problem, runs);
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "merging.start",
           LogField("initial_changes", initial_changes), LogField("k", k),
           LogField("candidates", problem.candidates.size()));

  // The mid-refinement runs still violate k, so they are never a
  // feasible answer — on a budget expiry or a refused memory
  // reservation the solve degrades to the cheapest static design
  // instead. Shared by both exits.
  const auto static_fallback =
      [&](int64_t changes, const char* cause) -> Result<DesignSchedule> {
    CDPD_LOG(ctx.logger, LogLevel::kWarn, "merging.fallback",
             LogField("changes", changes), LogField("k", k),
             LogField("cause", cause));
    Result<DesignSchedule> fallback = BestStaticSchedule(problem, k);
    if (!fallback.ok()) {
      return Status::DeadlineExceeded(
          "budget expired with " + std::to_string(changes) +
          " changes still above k = " + std::to_string(k) +
          ", and no static design satisfies the bound");
    }
    out.deadline_hit = true;
    out.best_effort = true;
    return std::move(fallback).value();
  };

  // Shape-cost columns of the candidates and of any initial-schedule
  // configuration outside them; each run points at its own.
  std::vector<std::vector<double>> candidate_columns;
  ScheduleColumns other_columns(what_if);

  // One span for the refinement and its final pricing; its arg is the
  // merge steps taken.
  TraceSpan merge_span(ctx.tracer, "merging.merge", "solver", 0);
  for (;;) {
    const int64_t changes = RunChanges(problem, runs);
    // Fraction of the excess changes merged away so far.
    if (initial_changes > k) {
      ReportProgress(ctx.progress, "merging",
                     static_cast<double>(initial_changes - changes) /
                         static_cast<double>(initial_changes - k));
    }
    if (changes <= k) break;
    if (BudgetExpired(ctx.budget)) {
      return static_fallback(changes, "deadline");
    }
    if (runs.size() == 1) {
      // Only possible when the initial change counts and k == 0: the
      // single remaining run must be C0 itself.
      const bool c0_available =
          std::find(problem.candidates.begin(), problem.candidates.end(),
                    problem.initial) != problem.candidates.end();
      if (!c0_available) {
        return Status::FailedPrecondition(
            "k = 0 with a counted initial change requires the initial "
            "configuration to be a candidate");
      }
      runs.front().config = problem.initial;
      merge_span.set_arg(++out.merge_steps);
      break;
    }

    if (candidate_columns.empty()) {
      // First round: price every candidate once.
      candidate_columns.resize(problem.candidates.size());
      ParallelFor(ctx.pool, 0, candidate_columns.size(), [&](size_t c) {
        candidate_columns[c] = what_if.ShapeColumn(problem.candidates[c]);
      });
      for (Run& run : runs) {
        const std::optional<ConfigId> id = problem.candidates.IdOf(run.config);
        run.column = id.has_value()
                         ? std::span<const double>(candidate_columns[*id])
                         : other_columns.For(run.config);
      }
    }

    // Parallel phase: evaluate every (pair, replacement) penalty into
    // a dense table (disjoint writes; the columns are read-only). The
    // winning cell is then picked by a serial scan in the serial
    // iteration order, so ties break identically for any thread count.
    const size_t num_pairs = runs.size() - 1;
    const size_t num_cands = problem.candidates.size();
    // This round's penalty tables, released when the round ends. A
    // refusal degrades now rather than waiting for the next budget
    // poll — the tables are exactly what there is no budget for.
    const ScopedReservation round_reservation = ScopedReservation::Try(
        ctx.tracker, MemComponent::kMergingTable,
        static_cast<int64_t>((num_pairs + num_pairs * num_cands) *
                             sizeof(double)));
    if (!round_reservation.ok()) {
      return static_fallback(changes, "memory-limit");
    }
    std::vector<double> old_costs(num_pairs);
    ParallelFor(ctx.pool, 0, num_pairs, [&](size_t i) {
      const Run& left = runs[i];
      const Run& right = runs[i + 1];
      const Configuration& prev =
          i == 0 ? problem.initial : runs[i - 1].config;
      const bool has_next = i + 2 < runs.size();
      double old_cost = what_if.TransitionCost(prev, left.config) +
                        what_if.RangeCost(left.begin, left.end, left.column) +
                        what_if.TransitionCost(left.config, right.config) +
                        what_if.RangeCost(right.begin, right.end, right.column);
      old_cost += has_next
                      ? what_if.TransitionCost(right.config, runs[i + 2].config)
                      : ExitCost(problem, right.config);
      old_costs[i] = old_cost;
    });
    std::vector<double> penalties(num_pairs * num_cands);
    ParallelFor(ctx.pool, 0, num_pairs * num_cands, [&](size_t cell) {
      const size_t i = cell / num_cands;
      const Run& left = runs[i];
      const Run& right = runs[i + 1];
      const Configuration& prev =
          i == 0 ? problem.initial : runs[i - 1].config;
      const bool has_next = i + 2 < runs.size();
      const size_t c = cell % num_cands;
      const Configuration& replacement = problem.candidates[c];
      double new_cost =
          what_if.TransitionCost(prev, replacement) +
          what_if.RangeCost(left.begin, right.end, candidate_columns[c]);
      new_cost += has_next
                      ? what_if.TransitionCost(replacement, runs[i + 2].config)
                      : ExitCost(problem, replacement);
      penalties[cell] = new_cost - old_costs[i];
    });
    out.candidate_evaluations +=
        static_cast<int64_t>(num_pairs * num_cands);

    double best_penalty = std::numeric_limits<double>::infinity();
    size_t best_pair = 0;
    Configuration best_replacement;
    std::optional<size_t> best_cand;
    for (size_t cell = 0; cell < penalties.size(); ++cell) {
      if (penalties[cell] < best_penalty) {
        best_penalty = penalties[cell];
        best_pair = cell / num_cands;
        best_cand = cell % num_cands;
        best_replacement = problem.candidates[*best_cand];
      }
    }

    // Replace the chosen pair, then coalesce equal neighbours (this is
    // how a step can remove two changes when C' equals C_{i-1} or
    // C_{i+2}).
    runs[best_pair].column = best_cand.has_value()
                                 ? std::span<const double>(
                                       candidate_columns[*best_cand])
                                 : other_columns.For(best_replacement);
    runs[best_pair].config = std::move(best_replacement);
    runs[best_pair].end = runs[best_pair + 1].end;
    runs.erase(runs.begin() + static_cast<int64_t>(best_pair) + 1);
    merge_span.set_arg(++out.merge_steps);
    std::vector<Run> coalesced;
    for (Run& run : runs) {
      if (!coalesced.empty() && coalesced.back().config == run.config) {
        coalesced.back().end = run.end;
      } else {
        coalesced.push_back(run);
      }
    }
    runs = std::move(coalesced);
  }

  DesignSchedule schedule;
  schedule.configs.resize(problem.num_segments());
  for (const Run& run : runs) {
    for (size_t i = run.begin; i < run.end; ++i) {
      schedule.configs[i] = run.config;
    }
  }
  schedule.total_cost = EvaluateScheduleCost(problem, schedule.configs);
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "merging.end",
           LogField("cost", schedule.total_cost),
           LogField("merge_steps", out.merge_steps),
           LogField("candidate_evaluations", out.candidate_evaluations));
  return schedule;
}

}  // namespace cdpd
