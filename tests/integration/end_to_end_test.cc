// Full-stack integration: SQL in, recommendation out, schedule applied
// to the physical engine, workload executed under it — the complete
// loop a user of the library runs.

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "engine/database.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace {

TEST(EndToEndTest, SqlScriptThroughParserBinderExecutor) {
  auto db = Database::Create(MakePaperSchema(), 5'000, 100, 9).value();
  AccessStats stats;
  ASSERT_TRUE(db->ExecuteSql("CREATE INDEX ON t (a)", &stats).ok());
  auto select = db->ExecuteSql("SELECT a FROM t WHERE a = 42", &stats);
  ASSERT_TRUE(select.ok());
  EXPECT_EQ(select->plan.kind, AccessPathKind::kIndexSeek);
  const int64_t hits_before = select->rows_affected;

  ASSERT_TRUE(
      db->ExecuteSql("UPDATE t SET a = 42 WHERE b = 7", &stats).ok());
  auto select_after = db->ExecuteSql("SELECT a FROM t WHERE a = 42", &stats);
  ASSERT_TRUE(select_after.ok());
  EXPECT_GE(select_after->rows_affected, hits_before);

  ASSERT_TRUE(
      db->ExecuteSql("INSERT INTO t VALUES (42, 1, 2, 3)", &stats).ok());
  auto select_final = db->ExecuteSql("SELECT a FROM t WHERE a = 42", &stats);
  ASSERT_TRUE(select_final.ok());
  EXPECT_EQ(select_final->rows_affected, select_after->rows_affected + 1);
}

TEST(EndToEndTest, RecommendationAppliedToEngineBeatsStaticEmptyDesign) {
  auto db = Database::Create(MakePaperSchema(), 50'000, 500'000, 10).value();
  WorkloadGenerator gen(db->schema(), 500'000, 11);
  Workload w1 = MakeScaledPaperWorkload("W1", 50, &gen).value();

  Advisor advisor(&db->cost_model());
  AdvisorOptions options;
  options.block_size = 50;
  options.solve.k = 2;
  options.candidate_indexes = MakePaperCandidateIndexes(db->schema());
  auto rec = advisor.Recommend(w1, options);
  ASSERT_TRUE(rec.ok()) << rec.status();

  // Execute the workload under the recommended schedule, applying each
  // design transition at its segment boundary.
  AccessStats with_design;
  for (size_t s = 0; s < rec->segments.size(); ++s) {
    ASSERT_TRUE(
        db->ApplyConfiguration(rec->schedule.configs[s], &with_design).ok());
    const Segment& segment = rec->segments[s];
    auto run = db->RunWorkload(std::span<const BoundStatement>(
        w1.statements.data() + segment.begin, segment.size()));
    ASSERT_TRUE(run.ok());
    with_design += run->stats;
  }
  // Reset and execute under the static empty design.
  AccessStats reset;
  ASSERT_TRUE(db->ApplyConfiguration(Configuration::Empty(), &reset).ok());
  auto baseline = db->RunWorkload(w1.Span());
  ASSERT_TRUE(baseline.ok());

  const double cost_with_design =
      db->cost_model().StatsToCost(with_design);
  const double cost_baseline = db->cost_model().StatsToCost(baseline->stats);
  EXPECT_LT(cost_with_design, 0.8 * cost_baseline);
}

TEST(EndToEndTest, MeasuredCostTracksWhatIfEstimate) {
  auto db = Database::Create(MakePaperSchema(), 50'000, 500'000, 12).value();
  WorkloadGenerator gen(db->schema(), 500'000, 13);
  Workload w1 = MakeScaledPaperWorkload("W1", 50, &gen).value();

  Advisor advisor(&db->cost_model());
  AdvisorOptions options;
  options.block_size = 50;
  options.solve.k = 2;
  options.candidate_indexes = MakePaperCandidateIndexes(db->schema());
  auto rec = advisor.Recommend(w1, options);
  ASSERT_TRUE(rec.ok());

  AccessStats measured;
  for (size_t s = 0; s < rec->segments.size(); ++s) {
    ASSERT_TRUE(
        db->ApplyConfiguration(rec->schedule.configs[s], &measured).ok());
    const Segment& segment = rec->segments[s];
    auto run = db->RunWorkload(std::span<const BoundStatement>(
        w1.statements.data() + segment.begin, segment.size()));
    ASSERT_TRUE(run.ok());
    measured += run->stats;
  }
  const double measured_cost = db->cost_model().StatsToCost(measured);
  // The estimate excludes per-query CPU noise and uses expected match
  // counts; agreement within 2x is the contract.
  EXPECT_GT(measured_cost, 0.5 * rec->schedule.total_cost);
  EXPECT_LT(measured_cost, 2.0 * rec->schedule.total_cost);
}

TEST(EndToEndTest, DeterministicRecommendationAcrossRuns) {
  auto run_once = [] {
    CostModel model(MakePaperSchema(), 100'000, 500'000);
    WorkloadGenerator gen(MakePaperSchema(), 500'000, 99);
    Workload w1 = MakeScaledPaperWorkload("W1", 50, &gen).value();
    Advisor advisor(&model);
    AdvisorOptions options;
    options.block_size = 50;
    options.solve.k = 2;
    auto rec = advisor.Recommend(w1, options);
    EXPECT_TRUE(rec.ok());
    return rec->schedule;
  };
  const DesignSchedule first = run_once();
  const DesignSchedule second = run_once();
  EXPECT_EQ(first.configs, second.configs);
  EXPECT_DOUBLE_EQ(first.total_cost, second.total_cost);
}

}  // namespace
}  // namespace cdpd
