// The explain report: golden renderings of ToText/ToJson on a
// hand-built report (every field pinned, so the output is exact), and
// the attribution invariants on real solved schedules — EXEC + TRANS
// totals reproduce the solver-reported cost bit-for-bit, transitions
// partition the schedule, and the optimality gap quotes the price of
// the change budget.

#include "core/explain.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "catalog/configuration.h"
#include "core/solver.h"
#include "storage/schema.h"
#include "../test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeIndex;
using testing_util::MakeRandomProblem;

/// A fully pinned report: two transitions over a 3-segment, 30-statement
/// schedule. Values are dyadic rationals so both renderers print them
/// without rounding surprises.
ExplainReport MakeGoldenReport(const Schema& schema) {
  ExplainReport report;
  report.method = "kaware";
  report.method_detail = "k-aware graph";
  report.k = 2;
  report.changes_used = 1;
  report.num_segments = 3;
  report.num_statements = 30;
  report.exec_total = 100.5;
  report.trans_total = 8.5;
  report.total_cost = 109.0;
  report.solver_reported_cost = 109.0;
  report.exact = true;
  report.unconstrained_cost = 100.0;
  report.optimality_gap = 9.0;
  report.stats.wall_seconds = 0.25;
  report.stats.threads_used = 4;
  report.stats.costings = 12;

  ExplainTransition initial;
  initial.segment = 0;
  initial.first_statement = 0;
  initial.run_end = 2;
  initial.run_end_statement = 20;
  initial.from = Configuration::Empty();
  initial.to = Configuration({MakeIndex(schema, {"a"})});
  initial.built = {MakeIndex(schema, {"a"})};
  initial.trans_cost = 0.0;
  initial.exec_savings = 20.25;
  initial.break_even_statement = 10;
  initial.counts_against_k = false;
  initial.kind = "initial";
  report.transitions.push_back(std::move(initial));

  ExplainTransition interior;
  interior.segment = 2;
  interior.first_statement = 20;
  interior.run_end = 3;
  interior.run_end_statement = 30;
  interior.from = Configuration({MakeIndex(schema, {"a"})});
  interior.to = Configuration({MakeIndex(schema, {"b"})});
  interior.built = {MakeIndex(schema, {"b"})};
  interior.dropped = {MakeIndex(schema, {"a"})};
  interior.trans_cost = 8.5;
  interior.exec_savings = 4.5;
  interior.counts_against_k = true;
  interior.kind = "interior";
  report.transitions.push_back(std::move(interior));
  return report;
}

TEST(ExplainTest, GoldenTextRendering) {
  const Schema schema = MakePaperSchema();
  const std::string expected =
      "explain (schema v1)\n"
      "  method:         kaware — k-aware graph\n"
      "  k:              2, changes used: 1\n"
      "  workload:       30 statements in 3 segments\n"
      "  schedule cost:  109  (attribution exact)\n"
      "    EXEC total:   100.5\n"
      "    TRANS total:  8.5\n"
      "  unconstrained:  100  (gap 9 = price of the change budget)\n"
      "  provenance:     normal\n"
      "  solve:          0.25 s, 4 threads, 12 costings\n"
      "transitions (2):\n"
      "  @stmt 0   initial build I(a)             TRANS 0"
      "  saves 20.25 over stmts [0, 20)  break-even @stmt 10"
      "  (free: initial build)\n"
      "  @stmt 20  change  build I(b); drop I(a)  TRANS 8.5"
      "  saves 4.5 over stmts [20, 30)  never breaks even in its run\n";
  EXPECT_EQ(MakeGoldenReport(schema).ToText(schema), expected);
}

TEST(ExplainTest, GoldenJsonRendering) {
  const Schema schema = MakePaperSchema();
  const std::string json = MakeGoldenReport(schema).ToJson(schema);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"cdpd.explain\""), std::string::npos);
  // Summary, with the exact %.17g double renderings.
  EXPECT_NE(json.find("\"method\": \"kaware\""), std::string::npos);
  EXPECT_NE(json.find("\"k\": 2, \"changes_used\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"exec_total\": 100.5"), std::string::npos);
  EXPECT_NE(json.find("\"trans_total\": 8.5"), std::string::npos);
  EXPECT_NE(json.find("\"total_cost\": 109"), std::string::npos);
  EXPECT_NE(json.find("\"exact\": true"), std::string::npos);
  EXPECT_NE(json.find("\"unconstrained_cost\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"optimality_gap\": 9"), std::string::npos);
  // Embedded stats (microsecond rounding).
  EXPECT_NE(json.find("\"stats\": {\"wall_us\": 250000"), std::string::npos);
  // Memory columns: a golden report built without a tracker has no
  // prediction, no measurement, and a null ratio.
  EXPECT_NE(json.find("\"predicted_kaware_bytes\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"actual_kaware_bytes\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"kaware_bytes_ratio\": null"), std::string::npos);
  // Both transitions, with nullable break-even.
  EXPECT_NE(json.find("\"kind\": \"initial\""), std::string::npos);
  EXPECT_NE(json.find("\"built\": [\"I(a)\"]"), std::string::npos);
  EXPECT_NE(json.find("\"break_even_statement\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"interior\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": [\"I(a)\"]"), std::string::npos);
  EXPECT_NE(json.find("\"break_even_statement\": null"), std::string::npos);
  // Balanced object/array nesting (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

/// The attribution invariants of one solved schedule.
void ExpectSolvedAttributionIsExact(int32_t max_per_config) {
  auto fixture = MakeRandomProblem(/*seed=*/7, /*num_segments=*/4,
                                   /*block_size=*/10, max_per_config);
  SolveOptions options;
  options.method = OptimizerMethod::kOptimal;
  options.k = 2;
  options.explain = true;
  const SolveResult result = Solve(fixture->problem, options).value();
  ASSERT_TRUE(result.explain.has_value());
  const ExplainReport& report = *result.explain;

  // The contract advisor_cli enforces with its exit status: totals
  // recomputed in EvaluateScheduleCost order match the solver-reported
  // cost bit-for-bit, and the side totals account for all of it.
  EXPECT_TRUE(report.exact);
  EXPECT_EQ(report.total_cost, result.schedule.total_cost);
  EXPECT_EQ(report.solver_reported_cost, result.schedule.total_cost);
  EXPECT_DOUBLE_EQ(report.exec_total + report.trans_total,
                   report.total_cost);
  EXPECT_GT(report.exec_total, 0.0);

  EXPECT_EQ(report.method, "optimal");
  ASSERT_TRUE(report.k.has_value());
  EXPECT_EQ(*report.k, 2);
  EXPECT_LE(report.changes_used, 2);
  EXPECT_EQ(report.changes_used,
            CountChanges(fixture->problem, result.schedule.configs));
  EXPECT_EQ(report.num_segments, 4u);
  EXPECT_EQ(report.num_statements, 40u);

  // Transitions partition the schedule: strictly increasing starts,
  // each covering a non-empty run, each a real physical change whose
  // `to` is `from` plus built minus dropped.
  size_t previous_start = 0;
  for (size_t i = 0; i < report.transitions.size(); ++i) {
    const ExplainTransition& t = report.transitions[i];
    if (i > 0) {
      EXPECT_GT(t.segment, previous_start);
    }
    previous_start = t.segment;
    EXPECT_NE(t.from, t.to);
    EXPECT_GE(t.built.size() + t.dropped.size(), 1u);
    EXPECT_GT(t.run_end, t.segment);
    EXPECT_GT(t.run_end_statement, t.first_statement);
    const ConfigurationDelta delta = DiffConfigurations(t.from, t.to);
    EXPECT_EQ(delta.created, t.built);
    EXPECT_EQ(delta.dropped, t.dropped);
    EXPECT_EQ(t.trans_cost,
              fixture->what_if->TransitionCost(t.from, t.to));
  }
}

TEST(ExplainTest, SolvedScheduleAttributionIsExact) {
  // The paper's seven singletons (the scan path) and every subset of
  // its six indexes (m = 64, the lattice path, whose DP sum adds in a
  // different order than EvaluateScheduleCost).
  for (int32_t max_per_config : {1, 6}) {
    SCOPED_TRACE(::testing::Message()
                 << "max_indexes_per_config=" << max_per_config);
    ExpectSolvedAttributionIsExact(max_per_config);
  }
}

/// One solve's predicted-vs-actual k-aware table bytes.
void ExpectPredictedVsActualKAwareBytes(int32_t max_per_config) {
  auto fixture = MakeRandomProblem(/*seed=*/7, /*num_segments=*/4,
                                   /*block_size=*/10, max_per_config);
  SolveOptions options;
  options.method = OptimizerMethod::kOptimal;
  options.k = 2;
  options.explain = true;
  const SolveResult result = Solve(fixture->problem, options).value();
  ASSERT_TRUE(result.explain.has_value());
  const ExplainReport& report = *result.explain;

  // The §3 space-bound check: the prediction comes from the problem
  // dimensions, the measurement from the tracker, and the DP's real
  // footprint stays within 2x of the formula in both directions.
  ASSERT_GT(report.predicted_kaware_bytes, 0);
  ASSERT_GT(report.actual_kaware_bytes, 0);
  const double ratio = static_cast<double>(report.actual_kaware_bytes) /
                       static_cast<double>(report.predicted_kaware_bytes);
  EXPECT_GE(ratio, 0.5);
  EXPECT_LE(ratio, 2.0);

  // Both renderers carry the comparison.
  const std::string text = report.ToText(fixture->schema);
  EXPECT_NE(text.find("k-aware:"), std::string::npos);
  EXPECT_NE(text.find("predicted"), std::string::npos);
  EXPECT_NE(text.find("ratio"), std::string::npos);
  const std::string json = report.ToJson(fixture->schema);
  EXPECT_NE(json.find("\"predicted_kaware_bytes\": " +
                      std::to_string(report.predicted_kaware_bytes)),
            std::string::npos);
  EXPECT_NE(json.find("\"actual_kaware_bytes\": " +
                      std::to_string(report.actual_kaware_bytes)),
            std::string::npos);
  EXPECT_EQ(json.find("\"kaware_bytes_ratio\": null"), std::string::npos);
}

TEST(ExplainTest, ConstrainedSolveReportsPredictedVsActualKAwareBytes) {
  // The scan space, and the m = 64 lattice space whose prediction also
  // carries the lattice scratch.
  for (int32_t max_per_config : {1, 6}) {
    SCOPED_TRACE(::testing::Message()
                 << "max_indexes_per_config=" << max_per_config);
    ExpectPredictedVsActualKAwareBytes(max_per_config);
  }
}

TEST(ExplainTest, UnconstrainedSolveReportsZeroGap) {
  auto fixture = MakeRandomProblem(/*seed=*/11, /*num_segments=*/3,
                                   /*block_size=*/10);
  SolveOptions options;
  options.method = OptimizerMethod::kOptimal;  // No k: unconstrained.
  options.explain = true;
  const SolveResult result = Solve(fixture->problem, options).value();
  ASSERT_TRUE(result.explain.has_value());
  const ExplainReport& report = *result.explain;
  EXPECT_TRUE(report.exact);
  EXPECT_FALSE(report.k.has_value());
  ASSERT_TRUE(report.unconstrained_cost.has_value());
  ASSERT_TRUE(report.optimality_gap.has_value());
  EXPECT_DOUBLE_EQ(*report.optimality_gap, 0.0);
  EXPECT_EQ(*report.unconstrained_cost, report.solver_reported_cost);
  // Renders without a fixed point of reference for the gap line.
  const std::string text = report.ToText(fixture->schema);
  EXPECT_NE(text.find("unconstrained"), std::string::npos);
  EXPECT_NE(text.find("(attribution exact)"), std::string::npos);
}

TEST(ExplainTest, FinalDestinationConstraintIsAttributedAsFinal) {
  auto fixture = MakeRandomProblem(/*seed=*/7, /*num_segments=*/4,
                                   /*block_size=*/10);
  // Force the paper's destination constraint: the schedule must return
  // to the empty design after the last statement.
  fixture->problem.final_config = Configuration::Empty();
  SolveOptions options;
  options.method = OptimizerMethod::kOptimal;
  options.explain = true;
  const SolveResult result = Solve(fixture->problem, options).value();
  ASSERT_TRUE(result.explain.has_value());
  const ExplainReport& report = *result.explain;
  EXPECT_TRUE(report.exact);
  ASSERT_FALSE(report.transitions.empty());
  // An unconstrained solve over point-heavy segments keeps at least
  // one index live at the end, so the forced teardown must appear as
  // the trailing "final" transition, never charged against k.
  ASSERT_FALSE(result.schedule.configs.empty());
  if (result.schedule.configs.back() != Configuration::Empty()) {
    const ExplainTransition& last = report.transitions.back();
    EXPECT_EQ(last.kind, "final");
    EXPECT_FALSE(last.counts_against_k);
    EXPECT_EQ(last.segment, report.num_segments);
    EXPECT_EQ(last.first_statement, report.num_statements);
    EXPECT_EQ(last.run_end, last.segment);
    EXPECT_EQ(last.to, Configuration::Empty());
  }
  // Every non-final transition still covers a non-empty run.
  for (const ExplainTransition& t : report.transitions) {
    if (t.kind != "final") {
      EXPECT_GT(t.run_end, t.segment);
    }
  }
}

}  // namespace
}  // namespace cdpd
