#include "cost/what_if.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "test_util.h"

namespace cdpd {
namespace {

class WhatIfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two segments: one all-a queries, one all-b queries.
    for (int i = 0; i < 10; ++i) {
      statements_.push_back(BoundStatement::SelectPoint(0, 0, i));
    }
    for (int i = 0; i < 10; ++i) {
      statements_.push_back(BoundStatement::SelectPoint(1, 1, i));
    }
    segments_ = SegmentFixed(statements_.size(), 10);
    what_if_ = std::make_unique<WhatIfEngine>(&model_, statements_,
                                              segments_);
  }

  Schema schema_ = MakePaperSchema();
  CostModel model_{schema_, 100'000, 1000};
  std::vector<BoundStatement> statements_;
  std::vector<Segment> segments_;
  std::unique_ptr<WhatIfEngine> what_if_;
};

TEST_F(WhatIfTest, SegmentCostSumsStatementCosts) {
  const Configuration empty;
  const double expected =
      10 * model_.StatementCost(BoundStatement::SelectPoint(0, 0, 0), empty);
  EXPECT_DOUBLE_EQ(what_if_->SegmentCost(0, empty), expected);
}

TEST_F(WhatIfTest, SegmentCostDependsOnConfiguration) {
  const Configuration ia({IndexDef({0})});
  EXPECT_LT(what_if_->SegmentCost(0, ia),
            what_if_->SegmentCost(0, Configuration::Empty()));
  // Segment 1 queries b; I(a) does not help it.
  EXPECT_DOUBLE_EQ(what_if_->SegmentCost(1, ia),
                   what_if_->SegmentCost(1, Configuration::Empty()));
}

TEST_F(WhatIfTest, CostingsCountEveryModelProbe) {
  // Nothing is memoized: a repeated probe is priced again, and a
  // shape-cost column costs one probe per workload shape.
  const Configuration empty;
  (void)what_if_->SegmentCost(0, empty);
  const int64_t after_first = what_if_->costings();
  (void)what_if_->SegmentCost(0, empty);
  EXPECT_EQ(what_if_->costings(), 2 * after_first);
  const std::vector<double> column = what_if_->ShapeColumn(empty);
  EXPECT_EQ(column.size(), what_if_->workload_profile().size());
  EXPECT_EQ(what_if_->costings(),
            2 * after_first +
                static_cast<int64_t>(what_if_->workload_profile().size()));
  // Pricing segments from the column costs nothing more, and gives the
  // same double as the one-segment probe.
  EXPECT_EQ(what_if_->SegmentCost(0, column),
            what_if_->SegmentCost(0, empty));
}

TEST_F(WhatIfTest, ProfilesCollapseStatementsWithEqualShape) {
  // Segment 0 holds 10 queries of one shape: exactly one costing.
  (void)what_if_->SegmentCost(0, Configuration::Empty());
  EXPECT_EQ(what_if_->costings(), 1);
}

TEST_F(WhatIfTest, RangeCostSumsSegments) {
  const Configuration empty;
  EXPECT_DOUBLE_EQ(
      what_if_->RangeCost(0, 2, empty),
      what_if_->SegmentCost(0, empty) + what_if_->SegmentCost(1, empty));
  EXPECT_DOUBLE_EQ(what_if_->RangeCost(1, 1, empty), 0.0);
}

TEST_F(WhatIfTest, TransitionCostForwardsToModel) {
  const Configuration ia({IndexDef({0})});
  EXPECT_DOUBLE_EQ(what_if_->TransitionCost(Configuration::Empty(), ia),
                   model_.TransitionCost(Configuration::Empty(), ia));
}

TEST_F(WhatIfTest, DistinctShapesAreCostedSeparately) {
  std::vector<BoundStatement> mixed;
  mixed.push_back(BoundStatement::SelectPoint(0, 0, 1));
  mixed.push_back(BoundStatement::SelectPoint(1, 1, 2));
  mixed.push_back(BoundStatement::UpdatePoint(2, 3, 0, 4));
  mixed.push_back(BoundStatement::SelectPoint(0, 0, 99));  // Same shape as #1.
  const std::vector<Segment> segments = {{0, mixed.size()}};
  WhatIfEngine engine(&model_, mixed, segments);
  (void)engine.SegmentCost(0, Configuration::Empty());
  EXPECT_EQ(engine.costings(), 3);  // Three distinct shapes.
}

TEST_F(WhatIfTest, PrecomputedExecCellsAreSegmentCostsOfShapeColumns) {
  // 1100 stages of mixed shapes, so the segment-major fill spans several
  // row ranges, over the 22 configurations of at most two indexes.
  auto fixture = testing_util::MakeRandomProblem(41, /*num_segments=*/1100,
                                                 /*block_size=*/20,
                                                 /*max_indexes_per_config=*/2);
  const CandidateSpace& space = fixture->problem.candidates;
  const WhatIfEngine& engine = *fixture->what_if;
  const size_t n = engine.num_segments();
  const size_t m = space.size();
  std::vector<std::vector<double>> columns;
  for (size_t c = 0; c < m; ++c) {
    columns.push_back(engine.ShapeColumn(space[c]));
  }
  const auto costings_per_fill =
      static_cast<int64_t>(engine.workload_profile().size() * m);
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
    SCOPED_TRACE(pool == nullptr ? 0 : pool->num_threads());
    const int64_t before = engine.costings();
    const CostMatrix matrix = engine.PrecomputeCostMatrix(space, pool).value();
    EXPECT_EQ(engine.costings() - before, costings_per_fill);
    for (size_t s = 0; s < n; ++s) {
      for (size_t c = 0; c < m; ++c) {
        ASSERT_EQ(std::bit_cast<uint64_t>(matrix.Exec(s, c)),
                  std::bit_cast<uint64_t>(engine.SegmentCost(s, columns[c])))
            << "segment " << s << " config " << c;
      }
    }
  }
}

TEST_F(WhatIfTest, ChangeTransIsTransWithAnInfiniteDiagonalAndPadding) {
  for (int32_t max_per_config : {1, 2}) {
    auto fixture = testing_util::MakeRandomProblem(42, 3, 10, max_per_config);
    const CandidateSpace& space = fixture->problem.candidates;
    const CostMatrix matrix =
        fixture->what_if->PrecomputeCostMatrix(space).value();
    const size_t m = space.size();
    const size_t stride = CostMatrix::ChangeStride(m);
    EXPECT_EQ(stride % CostMatrix::kChangeRowWidth, 0u);
    EXPECT_GE(stride, m);
    EXPECT_LT(stride, m + CostMatrix::kChangeRowWidth);
    for (size_t from = 0; from < m; ++from) {
      const double* row = matrix.ChangeTrans(from);
      for (size_t to = 0; to < stride; ++to) {
        if (to < m && to != from) {
          EXPECT_EQ(std::bit_cast<uint64_t>(row[to]),
                    std::bit_cast<uint64_t>(matrix.Trans(from, to)));
        } else {
          EXPECT_EQ(row[to], std::numeric_limits<double>::infinity())
              << "from " << from << " to " << to;
        }
      }
    }
  }
}

TEST_F(WhatIfTest, PrecomputeValidatesCellsAreFinite) {
  // A poisoned cost model (NaN page cost) must surface as a diagnosed
  // Internal error from the precompute — not as a silent NaN that a DP
  // later compares itself into garbage with.
  CostParams params;
  params.seq_page_cost = std::numeric_limits<double>::quiet_NaN();
  CostModel poisoned(schema_, 100'000, 1000, params);
  WhatIfEngine engine(&poisoned, statements_, segments_);
  const std::vector<Configuration> configs = {Configuration::Empty()};

  Result<CostMatrix> serial = engine.PrecomputeCostMatrix(configs);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), StatusCode::kInternal);
  // The diagnosis names the segment (its statement range) and the
  // candidate configuration of the offending cell.
  EXPECT_NE(serial.status().ToString().find("segment 0"), std::string::npos)
      << serial.status().ToString();
  EXPECT_NE(serial.status().ToString().find("statements 0..10"),
            std::string::npos)
      << serial.status().ToString();
  EXPECT_NE(serial.status().ToString().find("configuration #0"),
            std::string::npos)
      << serial.status().ToString();

  // The parallel fill reports the identical (lowest) cell, so the
  // error message is thread-count invariant.
  WhatIfEngine fresh(&poisoned, statements_, segments_);
  ThreadPool pool(4);
  Result<CostMatrix> parallel = fresh.PrecomputeCostMatrix(configs, &pool);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().ToString(), serial.status().ToString());
}

TEST_F(WhatIfTest, PrecomputeValidatesTransitionsAreFinite) {
  // Poison only the write path: point-select EXEC cells stay finite,
  // but building an index (a transition) goes through write_page_cost,
  // so the TRANS matrix is where the NaN lands.
  CostParams params;
  params.write_page_cost = std::numeric_limits<double>::infinity();
  CostModel poisoned(schema_, 100'000, 1000, params);
  WhatIfEngine engine(&poisoned, statements_, segments_);
  const std::vector<Configuration> configs = {
      Configuration::Empty(), Configuration({IndexDef({0})})};

  Result<CostMatrix> matrix = engine.PrecomputeCostMatrix(configs);
  ASSERT_FALSE(matrix.ok());
  EXPECT_EQ(matrix.status().code(), StatusCode::kInternal);
  EXPECT_NE(matrix.status().ToString().find("TRANS"), std::string::npos)
      << matrix.status().ToString();
}

}  // namespace
}  // namespace cdpd
