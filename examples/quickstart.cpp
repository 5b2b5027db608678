// Quickstart: the smallest end-to-end use of the library.
//
//  1. create a database (the paper's 4-int-column table),
//  2. describe an anticipated workload as a statement sequence,
//  3. ask the advisor for a change-constrained dynamic design,
//  4. apply each recommended configuration and run the workload.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "core/advisor.h"
#include "engine/database.h"
#include "workload/standard_workloads.h"

using namespace cdpd;

int main() {
  // 1. A database: 100k rows, four int columns a..d, values uniform in
  //    [0, 500000), deterministic seed.
  auto db = Database::Create(MakePaperSchema(), 100'000, 500'000,
                             /*seed=*/42)
                .value();
  std::printf("table %s with %lld rows (%lld heap pages)\n",
              db->schema().ToString().c_str(),
              static_cast<long long>(db->table().num_rows()),
              static_cast<long long>(db->table().heap_pages()));

  // 2. A representative workload trace: the paper's W1 (three phases
  //    with minor fluctuations), scaled to 100-query blocks.
  WorkloadGenerator generator(db->schema(), 500'000, /*seed=*/7);
  Workload trace = MakeScaledPaperWorkload("W1", 100, &generator).value();
  std::printf("workload: %zu point queries in %zu blocks\n", trace.size(),
              trace.block_mix_names.size());

  // 3. Recommend a dynamic design with at most k = 2 design changes —
  //    enough for the two major workload shifts, too few to chase every
  //    minor fluctuation.
  Advisor advisor(&db->cost_model());
  AdvisorOptions options;
  options.block_size = 100;
  options.solve.k = 2;
  auto rec = advisor.Recommend(trace, options);
  if (!rec.ok()) {
    std::printf("advisor failed: %s\n", rec.status().ToString().c_str());
    return 1;
  }
  std::printf("\nrecommended design schedule (%lld changes, estimated cost "
              "%.3e):\n",
              static_cast<long long>(rec->changes),
              rec->schedule.total_cost);
  const Configuration* previous = nullptr;
  for (size_t s = 0; s < rec->segments.size(); ++s) {
    const Configuration& config = rec->schedule.configs[s];
    if (previous == nullptr || !(config == *previous)) {
      std::printf("  from statement %5zu: %s\n", rec->segments[s].begin + 1,
                  config.ToString(db->schema()).c_str());
    }
    previous = &config;
  }

  // 4. Execute the trace under the schedule, applying design
  //    transitions at segment boundaries.
  AccessStats total;
  for (size_t s = 0; s < rec->segments.size(); ++s) {
    if (auto status = db->ApplyConfiguration(rec->schedule.configs[s], &total);
        !status.ok()) {
      std::printf("apply failed: %s\n", status.ToString().c_str());
      return 1;
    }
    const Segment& segment = rec->segments[s];
    auto run = db->RunWorkload(std::span<const BoundStatement>(
        trace.statements.data() + segment.begin, segment.size()));
    if (!run.ok()) {
      std::printf("run failed: %s\n", run.status().ToString().c_str());
      return 1;
    }
    total += run->stats;
  }
  std::printf("\nexecuted %zu statements; physical work: %s\n", trace.size(),
              total.ToString().c_str());
  std::printf("page-weighted cost: %.0f (model estimated %.0f)\n",
              db->cost_model().StatsToCost(total),
              rec->schedule.total_cost);
  return 0;
}
