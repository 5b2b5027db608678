// Scaled-down versions of the paper's experiments (§6), asserting the
// qualitative results the benches reproduce at full scale:
//  * Table 2 — the unconstrained design tracks minor shifts (I(a,b) vs
//    I(b) and I(c,d) vs I(d)); the k=2 design holds I(a,b) / I(c,d) /
//    I(a,b) across the three phases.
//  * Figure 3 — W1 prefers its unconstrained design, W2/W3 prefer the
//    constrained design recommended from W1.

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "cost/what_if.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace {

class PaperExperimentsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = MakePaperSchema();
    // Scaled table (the paper uses 2.5M rows; 200k preserves every
    // cost ordering — see DESIGN.md) and scaled blocks of 100 queries.
    model_ = std::make_unique<CostModel>(schema_, 200'000, 500'000);
    WorkloadGenerator gen(schema_, 500'000, /*seed=*/1234);
    w1_ = MakeScaledPaperWorkload("W1", kBlock, &gen).value();
    w2_ = MakeScaledPaperWorkload("W2", kBlock, &gen).value();
    w3_ = MakeScaledPaperWorkload("W3", kBlock, &gen).value();
  }

  Recommendation Recommend(std::optional<int64_t> k) {
    Advisor advisor(model_.get());
    AdvisorOptions options;
    options.block_size = kBlock;
    options.solve.k = k;
    options.candidate_indexes = MakePaperCandidateIndexes(schema_);
    options.final_config = Configuration::Empty();  // As in §6.1.
    auto rec = advisor.Recommend(w1_, options);
    EXPECT_TRUE(rec.ok()) << rec.status();
    return std::move(rec).value();
  }

  /// Cost of executing `workload` under a W1-derived schedule
  /// (including the transitions), per the what-if model.
  double WorkloadCostUnderSchedule(const Workload& workload,
                                   const std::vector<Configuration>& configs) {
    WhatIfEngine what_if(model_.get(), workload.Span(),
                         SegmentFixed(workload.size(), kBlock));
    DesignProblem problem;
    problem.what_if = &what_if;
    problem.candidates = {Configuration::Empty()};  // Unused here.
    problem.initial = Configuration::Empty();
    return EvaluateScheduleCost(problem, configs);
  }

  // 200-query blocks keep every design decision decisively profitable
  // (at 100 the first B-run's switch is within sampling noise of the
  // build cost, and the optimizer legitimately keeps I(a,b)).
  static constexpr size_t kBlock = 200;
  Schema schema_;
  std::unique_ptr<CostModel> model_;
  Workload w1_, w2_, w3_;
};

TEST_F(PaperExperimentsTest, Table2UnconstrainedDesignTracksMinorShifts) {
  const Recommendation rec = Recommend(/*k=*/std::nullopt);
  ASSERT_EQ(rec.schedule.configs.size(), 30u);
  const Configuration iab({IndexDef({0, 1})});
  const Configuration ib({IndexDef({1})});
  const Configuration icd({IndexDef({2, 3})});
  const Configuration id({IndexDef({3})});
  const std::vector<std::string> letters = PaperBlockMixLetters("W1");
  for (size_t block = 0; block < 30; ++block) {
    const Configuration& got = rec.schedule.configs[block];
    if (letters[block] == "A") {
      EXPECT_EQ(got, iab) << "block " << block;
    } else if (letters[block] == "B") {
      EXPECT_EQ(got, ib) << "block " << block;
    } else if (letters[block] == "C") {
      EXPECT_EQ(got, icd) << "block " << block;
    } else {
      EXPECT_EQ(got, id) << "block " << block;
    }
  }
  EXPECT_GE(rec.changes, 10);  // Tracks every minor shift.
}

TEST_F(PaperExperimentsTest, Table2ConstrainedDesignTracksOnlyMajorShifts) {
  const Recommendation rec = Recommend(/*k=*/2);
  ASSERT_EQ(rec.schedule.configs.size(), 30u);
  EXPECT_LE(rec.changes, 2);
  const Configuration iab({IndexDef({0, 1})});
  const Configuration icd({IndexDef({2, 3})});
  for (size_t block = 0; block < 10; ++block) {
    EXPECT_EQ(rec.schedule.configs[block], iab) << "block " << block;
  }
  for (size_t block = 10; block < 20; ++block) {
    EXPECT_EQ(rec.schedule.configs[block], icd) << "block " << block;
  }
  for (size_t block = 20; block < 30; ++block) {
    EXPECT_EQ(rec.schedule.configs[block], iab) << "block " << block;
  }
}

TEST_F(PaperExperimentsTest, Figure3CostOrderings) {
  const Recommendation unconstrained = Recommend(/*k=*/std::nullopt);
  const Recommendation constrained = Recommend(/*k=*/2);

  // W1: the unconstrained design is optimal for it by definition.
  const double w1_unc =
      WorkloadCostUnderSchedule(w1_, unconstrained.schedule.configs);
  const double w1_con =
      WorkloadCostUnderSchedule(w1_, constrained.schedule.configs);
  EXPECT_LT(w1_unc, w1_con);
  // The paper reports ~14% slower; ours should be modest, not extreme.
  EXPECT_LT((w1_con - w1_unc) / w1_unc, 0.5);

  // W2 and W3 (same major phases, different minor shifts) are better
  // off under the constrained design.
  const double w2_unc =
      WorkloadCostUnderSchedule(w2_, unconstrained.schedule.configs);
  const double w2_con =
      WorkloadCostUnderSchedule(w2_, constrained.schedule.configs);
  EXPECT_LT(w2_con, w2_unc);

  const double w3_unc =
      WorkloadCostUnderSchedule(w3_, unconstrained.schedule.configs);
  const double w3_con =
      WorkloadCostUnderSchedule(w3_, constrained.schedule.configs);
  EXPECT_LT(w3_con, w3_unc);

  // And W3 (out of phase) suffers more under the W1-fitted design than
  // W2 does.
  EXPECT_GT(w3_unc / w3_con, w2_unc / w2_con * 0.99);
}

TEST_F(PaperExperimentsTest, KAwareSpaceStaysWithinTwiceThePrediction) {
  // §3's space claim, measured at paper-experiment scale: across the
  // k sweep, the DP table's tracked peak stays within 2x of the
  // O(k n 2^{2m})-derived prediction in both directions.
  Advisor advisor(model_.get());
  for (int64_t k : {1, 2, 4, 8}) {
    AdvisorOptions options;
    options.block_size = kBlock;
    options.solve.k = k;
    options.candidate_indexes = MakePaperCandidateIndexes(schema_);
    options.final_config = Configuration::Empty();
    options.solve.explain = true;
    const Recommendation rec = advisor.Recommend(w1_, options).value();
    ASSERT_TRUE(rec.explain.has_value()) << "k=" << k;
    const ExplainReport& report = *rec.explain;
    ASSERT_GT(report.predicted_kaware_bytes, 0) << "k=" << k;
    ASSERT_GT(report.actual_kaware_bytes, 0) << "k=" << k;
    const double ratio =
        static_cast<double>(report.actual_kaware_bytes) /
        static_cast<double>(report.predicted_kaware_bytes);
    EXPECT_GE(ratio, 0.5) << "k=" << k;
    EXPECT_LE(ratio, 2.0) << "k=" << k;
    EXPECT_GT(rec.stats.peak_bytes_total, 0) << "k=" << k;
    EXPECT_FALSE(rec.stats.memory_limit_hit) << "k=" << k;
  }
}

TEST_F(PaperExperimentsTest, ConstrainedCostsDecreaseInK) {
  double previous = std::numeric_limits<double>::infinity();
  for (int64_t k : {0, 1, 2, 4, 8, 29}) {
    const Recommendation rec = Recommend(k);
    EXPECT_LE(rec.schedule.total_cost, previous + 1e-6) << "k=" << k;
    previous = rec.schedule.total_cost;
  }
  const Recommendation unconstrained = Recommend(std::nullopt);
  EXPECT_NEAR(previous, unconstrained.schedule.total_cost, 1e-6);
}

}  // namespace
}  // namespace cdpd
