// Reproduces Table 2: the dynamic workloads W1/W2/W3 (mix letter per
// 500-query block) and the dynamic physical designs recommended for W1
// by the unconstrained (k = infinity) and constrained (k = 2)
// optimizers, at the paper's full scale (2.5 M rows, 15000 queries).

#include <cstdio>

#include "bench_util.h"

namespace cdpd {
namespace {

void Run(bench_util::BenchReport* report) {
  using namespace bench_util;
  const Schema schema = MakePaperSchema();
  auto model = MakePaperCostModel();
  const Workload w1 = MakeFullWorkload("W1", kSeed);

  Advisor advisor(model.get());
  auto unconstrained = advisor.Recommend(w1, PaperAdvisorOptions(std::nullopt));
  auto constrained = advisor.Recommend(w1, PaperAdvisorOptions(2));
  if (!unconstrained.ok() || !constrained.ok()) {
    std::printf("advisor failed: %s %s\n",
                unconstrained.status().ToString().c_str(),
                constrained.status().ToString().c_str());
    return;
  }
  report->AddCase("w1_unconstrained", unconstrained->stats.wall_seconds,
                  unconstrained->stats);
  report->AddCase("w1_k2", constrained->stats.wall_seconds,
                  constrained->stats);

  PrintHeader("Table 2: Dynamic Workloads and Physical Designs");
  std::printf("%-14s %-4s %-10s %-10s %-4s %-4s\n", "query number", "W1",
              "k=inf", "k=2", "W2", "W3");
  const auto w1_letters = PaperBlockMixLetters("W1");
  const auto w2_letters = PaperBlockMixLetters("W2");
  const auto w3_letters = PaperBlockMixLetters("W3");
  for (size_t block = 0; block < 30; ++block) {
    const size_t lo = block * kPaperBlockSize + 1;
    const size_t hi = (block + 1) * kPaperBlockSize;
    char range[32];
    std::snprintf(range, sizeof(range), "%zu-%zu", lo, hi);
    std::printf("%-14s %-4s %-10s %-10s %-4s %-4s\n", range,
                w1_letters[block].c_str(),
                unconstrained->schedule.configs[block].ToString(schema)
                    .c_str(),
                constrained->schedule.configs[block].ToString(schema).c_str(),
                w2_letters[block].c_str(), w3_letters[block].c_str());
  }
  PrintRule();
  std::printf("unconstrained: %lld design changes, estimated cost %.3e, "
              "optimized in %.3fs\n",
              static_cast<long long>(unconstrained->changes),
              unconstrained->schedule.total_cost,
              unconstrained->stats.wall_seconds);
  std::printf("constrained:   %lld design changes (k = 2), estimated cost "
              "%.3e, optimized in %.3fs\n",
              static_cast<long long>(constrained->changes),
              constrained->schedule.total_cost,
              constrained->stats.wall_seconds);
  std::printf("candidate indexes: ");
  for (const IndexDef& def : unconstrained->candidate_indexes) {
    std::printf("%s ", def.ToString(schema).c_str());
  }
  std::printf("\n");
  PrintRule();
}

}  // namespace
}  // namespace cdpd

int main() {
  cdpd::bench_util::BenchReport report("table2_designs");
  cdpd::Run(&report);
  report.Write();
  return 0;
}
