#include "core/k_selection.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/rng.h"
#include "common/string_util.h"
#include "cost/what_if.h"

namespace cdpd {

std::string KSelectionReport::ToString() const {
  std::string out = "k-selection (holdout validation):\n";
  out += "      k  changes        fit-cost       eval-cost\n";
  for (const KCandidateOutcome& outcome : outcomes) {
    const std::string k_label =
        outcome.k.has_value() ? std::to_string(*outcome.k) : "inf";
    char line[128];
    std::snprintf(line, sizeof(line), "  %5s %8lld %15.4e %15.4e%s\n",
                  k_label.c_str(), static_cast<long long>(outcome.changes),
                  outcome.fit_cost, outcome.eval_cost,
                  outcome.k == chosen_k ? "  <-- chosen" : "");
    out += line;
  }
  return out;
}

std::vector<Workload> MakeJitteredVariants(const Workload& trace,
                                           size_t block_size,
                                           size_t window_blocks, int count,
                                           uint64_t seed) {
  std::vector<Workload> variants;
  if (block_size == 0 || trace.size() == 0) return variants;
  const std::vector<Segment> blocks = SegmentFixed(trace.size(), block_size);
  Rng rng(seed);
  for (int v = 0; v < count; ++v) {
    // Shuffle block order within consecutive windows.
    std::vector<size_t> order(blocks.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t window = 0; window < order.size();
         window += window_blocks) {
      const size_t end = std::min(order.size(), window + window_blocks);
      // Fisher-Yates within [window, end).
      for (size_t i = end - 1; i > window; --i) {
        const size_t j =
            window + static_cast<size_t>(rng.NextBounded(i - window + 1));
        std::swap(order[i], order[j]);
      }
    }
    Workload variant;
    variant.block_size = block_size;
    variant.statements.reserve(trace.size());
    for (size_t block_index : order) {
      const Segment& block = blocks[block_index];
      for (size_t i = block.begin; i < block.end; ++i) {
        variant.statements.push_back(trace.statements[i]);
      }
      if (block_index < trace.block_mix_names.size()) {
        variant.block_mix_names.push_back(
            trace.block_mix_names[block_index]);
      }
    }
    variants.push_back(std::move(variant));
  }
  return variants;
}

namespace {

/// Replays `configs` positionally against `workload` and returns the
/// sequence execution cost.
double ReplayCost(const CostModel& model, const Workload& workload,
                  const std::vector<Configuration>& configs,
                  const AdvisorOptions& advisor_options) {
  WhatIfEngine what_if(&model, workload.Span(),
                       SegmentFixed(workload.size(),
                                    advisor_options.block_size));
  DesignProblem problem;
  problem.what_if = &what_if;
  problem.candidates = {Configuration::Empty()};  // Unused by evaluation.
  problem.initial = advisor_options.initial_config;
  problem.final_config = advisor_options.final_config;
  problem.count_initial_change = advisor_options.count_initial_change;
  return EvaluateScheduleCost(problem, configs);
}

}  // namespace

Result<KSelectionReport> ChooseChangeBound(
    const CostModel& model, const Workload& design_trace,
    const std::vector<Workload>& eval_traces,
    const KSelectionOptions& options) {
  if (options.candidate_ks.empty()) {
    return Status::InvalidArgument("no candidate change bounds given");
  }
  const std::vector<Workload>* evals = &eval_traces;
  std::vector<Workload> synthetic;
  if (eval_traces.empty()) {
    synthetic = MakeJitteredVariants(
        design_trace, options.advisor.block_size,
        options.jitter_window_blocks, options.num_synthetic_variants,
        options.seed);
    if (synthetic.empty()) {
      return Status::InvalidArgument(
          "cannot synthesize evaluation variants (empty trace or zero "
          "block size)");
    }
    evals = &synthetic;
  }
  for (const Workload& eval : *evals) {
    if (eval.size() != design_trace.size()) {
      return Status::InvalidArgument(
          "evaluation traces must have the design trace's length for "
          "positional replay");
    }
  }

  Advisor advisor(&model);
  KSelectionReport report;
  double best = std::numeric_limits<double>::infinity();
  for (const std::optional<int64_t>& k : options.candidate_ks) {
    AdvisorOptions advisor_options = options.advisor;
    advisor_options.solve.k = k;
    CDPD_ASSIGN_OR_RETURN(Recommendation rec,
                          advisor.Recommend(design_trace, advisor_options));
    KCandidateOutcome outcome;
    outcome.k = k;
    outcome.changes = rec.changes;
    outcome.fit_cost = rec.schedule.total_cost;
    double total = 0;
    for (const Workload& eval : *evals) {
      total += ReplayCost(model, eval, rec.schedule.configs,
                          advisor_options);
    }
    outcome.eval_cost = total / static_cast<double>(evals->size());
    if (outcome.eval_cost < best) {
      best = outcome.eval_cost;
      report.chosen_k = k;
    }
    report.outcomes.push_back(outcome);
  }
  return report;
}

}  // namespace cdpd
