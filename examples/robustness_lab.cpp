// Robustness lab: quantifies the paper's central claim — a looser fit
// (smaller k) generalizes better to workloads that are similar but not
// identical to the design trace — by sweeping both the change bound k
// and the amount of perturbation applied to the replayed workload.
//
// Perturbation model: each 500-query block of W1 keeps its phase
// (A/B vs C/D family) but flips to its sibling mix with probability p.
// p = 0 replays W1; larger p drifts toward W3-like out-of-phase
// behaviour.

#include <cstdio>
#include <vector>

#include "core/advisor.h"
#include "cost/what_if.h"
#include "workload/standard_workloads.h"

using namespace cdpd;

namespace {

Workload MakePerturbedW1(const Schema& schema, double flip_probability,
                         uint64_t seed) {
  const std::vector<QueryMix> mixes = MakePaperQueryMixes();
  const std::vector<std::string> letters = PaperBlockMixLetters("W1");
  Rng rng(seed);
  std::vector<int> blocks;
  for (const std::string& letter : letters) {
    int mix = FindMixByName(mixes, letter);
    if (rng.NextDouble() < flip_probability) {
      mix ^= 1;  // A<->B, C<->D: the sibling within the phase family.
    }
    blocks.push_back(mix);
  }
  WorkloadGenerator gen(schema, 500'000, rng.Next());
  return gen.GenerateBlocked(mixes, blocks, kPaperBlockSize).value();
}

double ReplayCost(const CostModel& model, const Workload& workload,
                  const std::vector<Configuration>& schedule) {
  WhatIfEngine what_if(&model, workload.Span(),
                       SegmentFixed(workload.size(), kPaperBlockSize));
  DesignProblem problem;
  problem.what_if = &what_if;
  problem.candidates = {Configuration::Empty()};
  problem.initial = Configuration::Empty();
  problem.final_config = Configuration::Empty();
  return EvaluateScheduleCost(problem, schedule);
}

}  // namespace

int main() {
  const Schema schema = MakePaperSchema();
  const CostModel model(schema, 2'500'000, 500'000);

  WorkloadGenerator gen(schema, 500'000, 4242);
  const Workload w1 = MakePaperWorkload("W1", &gen).value();

  Advisor advisor(&model);
  const std::vector<int64_t> ks = {0, 1, 2, 4, 8, -1};
  std::vector<std::vector<Configuration>> schedules;
  std::printf("designs recommended from W1:\n");
  for (int64_t k : ks) {
    AdvisorOptions options;
    options.block_size = kPaperBlockSize;
    options.solve.k = k < 0 ? std::nullopt : std::optional<int64_t>(k);
    options.candidate_indexes = MakePaperCandidateIndexes(schema);
    options.final_config = Configuration::Empty();
    auto rec = advisor.Recommend(w1, options);
    if (!rec.ok()) {
      std::printf("advisor failed: %s\n", rec.status().ToString().c_str());
      return 1;
    }
    std::printf("  k=%3lld: %lld changes, fitted cost %.3e\n",
                static_cast<long long>(k),
                static_cast<long long>(rec->changes),
                rec->schedule.total_cost);
    schedules.push_back(rec->schedule.configs);
  }

  std::printf("\nreplay cost (relative to the static k=0 design at p=0) "
              "under perturbed workloads,\naveraged over 5 perturbed traces "
              "per cell:\n\n  p\\k ");
  for (int64_t k : ks) {
    if (k < 0) {
      std::printf("%9s", "inf");
    } else {
      std::printf("%9lld", static_cast<long long>(k));
    }
  }
  std::printf("\n");

  double baseline = -1;
  for (double p : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    std::printf("%5.2f", p);
    for (size_t i = 0; i < ks.size(); ++i) {
      double total = 0;
      for (uint64_t trial = 0; trial < 5; ++trial) {
        const Workload perturbed =
            MakePerturbedW1(schema, p, 1000 + trial * 17 +
                                           static_cast<uint64_t>(p * 100));
        total += ReplayCost(model, perturbed, schedules[i]);
      }
      const double mean = total / 5;
      if (baseline < 0) baseline = mean;  // First cell: p=0, k=0.
      std::printf("%8.0f%%", 100.0 * mean / baseline);
    }
    std::printf("\n");
  }
  std::printf(
      "\nReading the table: at p = 0 the tight fit (k = inf) wins; as the\n"
      "replayed workload drifts from the design trace, the constrained\n"
      "designs overtake it — the constrained design is not tied to W1's\n"
      "exact minor-shift pattern. This is Figure 3 generalized to a\n"
      "whole robustness curve.\n");
  return 0;
}
