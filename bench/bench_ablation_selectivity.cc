// Ablation G: selectivity statistics. The paper's data is uniform, so
// a uniform-domain assumption is exact. On skewed data the assumption
// misprices plans; attaching measured TableStats (density vectors +
// histograms) fixes the recommendations. This bench builds a skewed
// table, compares the uniform-assumption advisor against the
// stats-aware advisor, and scores both designs by physically executing
// the workload.

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/rng.h"
#include "cost/table_stats.h"
#include "cost/what_if.h"

namespace cdpd {
namespace {

/// A skewed database: column a has only 8 distinct values (equality on
/// it matches ~12.5% of rows — indexing it is a trap), column b is
/// nearly unique.
std::unique_ptr<Database> MakeSkewedDatabase(int64_t rows) {
  auto db = Database::Create(MakePaperSchema(), rows,
                             bench_util::kPaperDomain, bench_util::kSeed)
                .value();
  // Install the skew in place (before any index exists) so the cost
  // model's cardinality stays correct.
  Table* table = db->GetTableForBulkLoad().value();
  Rng rng(bench_util::kSeed);
  for (RowId row = 0; row < table->num_rows(); ++row) {
    (void)table->SetValue(row, 0, rng.UniformInt(0, 7));
    (void)table->SetValue(row, 2, rng.UniformInt(0, 99));
  }
  return db;
}

double ExecuteUnderSchedule(Database* db, const Workload& workload,
                            const Recommendation& rec) {
  AccessStats total;
  for (size_t s = 0; s < rec.segments.size(); ++s) {
    (void)db->ApplyConfiguration(rec.schedule.configs[s], &total);
    auto run = db->RunWorkload(std::span<const BoundStatement>(
        workload.statements.data() + rec.segments[s].begin,
        rec.segments[s].size()));
    total += run->stats;
  }
  AccessStats teardown;
  (void)db->ApplyConfiguration(Configuration::Empty(), &teardown);
  total += teardown;
  return db->cost_model().StatsToCost(total);
}

void Run(bench_util::BenchReport* report) {
  using namespace bench_util;
  constexpr int64_t kRows = 100'000;
  auto db = MakeSkewedDatabase(kRows);
  const Schema schema = MakePaperSchema();

  // Workload: half the queries filter on the low-cardinality column a
  // but *select d* (so an a-index cannot cover them: every match costs
  // a heap fetch); the other half are point lookups on the near-unique
  // column b.
  WorkloadGenerator gen(schema, kPaperDomain, kSeed + 9);
  std::vector<QueryMix> mixes = {QueryMix{"AB", {0.5, 0.5, 0.0, 0.0}}};
  Workload workload =
      gen.GenerateBlocked(mixes, std::vector<int>(10, 0), 500).value();
  Rng clamp(kSeed + 10);
  for (BoundStatement& s : workload.statements) {
    if (s.where_column == 0) {
      s.select_column = 3;  // Non-covered projection.
      s.where_value = clamp.UniformInt(0, 7);  // Values that exist.
    }
  }

  const TableStats stats = TableStats::FromTable(db->table());
  PrintHeader("Ablation G: uniform selectivity assumption vs measured "
              "TableStats on skewed data");
  std::printf("%s\n", stats.ToString(schema).c_str());

  // Advisor 1: uniform assumption.
  CostModel uniform_model(schema, kRows, kPaperDomain);
  Advisor uniform_advisor(&uniform_model);
  AdvisorOptions options;
  options.block_size = 500;
  options.solve.k = 0;  // Static design: isolates the selectivity question.
  options.candidate_indexes = MakePaperCandidateIndexes(schema);
  auto uniform_rec = uniform_advisor.Recommend(workload, options);

  // Advisor 2: stats-aware.
  CostModel stats_model(schema, kRows, kPaperDomain);
  stats_model.SetTableStats(&stats);
  Advisor stats_advisor(&stats_model);
  auto stats_rec = stats_advisor.Recommend(workload, options);

  if (!uniform_rec.ok() || !stats_rec.ok()) {
    std::printf("advisor failed\n");
    return;
  }
  report->AddCase("uniform_advisor", uniform_rec->stats.wall_seconds,
                  uniform_rec->stats);
  report->AddCase("stats_aware_advisor", stats_rec->stats.wall_seconds,
                  stats_rec->stats);
  std::printf("uniform-assumption design: %s\n",
              uniform_rec->schedule.configs[0].ToString(schema).c_str());
  std::printf("stats-aware design:        %s\n\n",
              stats_rec->schedule.configs[0].ToString(schema).c_str());

  const double uniform_measured =
      ExecuteUnderSchedule(db.get(), workload, *uniform_rec);
  const double stats_measured =
      ExecuteUnderSchedule(db.get(), workload, *stats_rec);
  std::printf("measured execution (page-cost units):\n");
  std::printf("  under uniform-assumption design: %14.0f\n",
              uniform_measured);
  std::printf("  under stats-aware design:        %14.0f  (%.1f%%)\n",
              stats_measured, 100.0 * stats_measured / uniform_measured);
  PrintRule();
  std::printf(
      "The uniform advisor expects ~0.2 matches per a-query, so the\n"
      "seek-plus-heap-fetch plan under I(a,b) looks free; in reality an\n"
      "a-predicate matches ~12.5%% of the table and every match is a\n"
      "random heap fetch. Density statistics expose the trap and the\n"
      "advisor falls back to indexing only the selective column b.\n");
  PrintRule();
}

}  // namespace
}  // namespace cdpd

int main() {
  cdpd::bench_util::BenchReport report("ablation_selectivity");
  cdpd::Run(&report);
  report.Write();
  return 0;
}
