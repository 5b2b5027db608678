#include "core/validator.h"

#include <gtest/gtest.h>

#include "core/k_aware_graph.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

class ValidatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = MakeRandomProblem(130, 4, 10);
    schedule_ = SolveKAware(fixture_->problem, std::nullopt).value();
  }
  std::unique_ptr<testing_util::ProblemFixture> fixture_;
  DesignSchedule schedule_;
};

TEST_F(ValidatorTest, AcceptsOptimizerOutput) {
  EXPECT_TRUE(ValidateSchedule(fixture_->problem, schedule_, std::nullopt).ok());
}

TEST_F(ValidatorTest, RejectsWrongLength) {
  DesignSchedule bad = schedule_;
  bad.configs.pop_back();
  EXPECT_EQ(ValidateSchedule(fixture_->problem, bad, std::nullopt).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ValidatorTest, RejectsNonCandidateConfiguration) {
  DesignSchedule bad = schedule_;
  bad.configs[0] =
      Configuration({IndexDef({3, 2, 1, 0})});  // Never a candidate.
  EXPECT_EQ(ValidateSchedule(fixture_->problem, bad, std::nullopt).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ValidatorTest, RejectsChangeBoundViolation) {
  const int64_t changes =
      CountChanges(fixture_->problem, schedule_.configs);
  if (changes == 0) GTEST_SKIP() << "static schedule; nothing to violate";
  EXPECT_EQ(ValidateSchedule(fixture_->problem, schedule_, changes - 1)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      ValidateSchedule(fixture_->problem, schedule_, changes).ok());
}

TEST_F(ValidatorTest, RejectsInconsistentReportedCost) {
  DesignSchedule bad = schedule_;
  bad.total_cost *= 1.5;
  EXPECT_EQ(ValidateSchedule(fixture_->problem, bad, std::nullopt).code(),
            StatusCode::kInternal);
}

TEST_F(ValidatorTest, RejectsSpaceBoundViolation) {
  DesignProblem tight = fixture_->problem;
  // Shrink the bound below the indexes actually used (if any).
  bool has_nonempty = false;
  for (const Configuration& c : schedule_.configs) {
    has_nonempty |= !c.empty();
  }
  if (!has_nonempty) GTEST_SKIP() << "all-empty schedule";
  tight.space_bound_pages = 1;
  // The problem itself now fails validation (candidates too big), which
  // the validator surfaces.
  EXPECT_FALSE(ValidateSchedule(tight, schedule_, std::nullopt).ok());
}

}  // namespace
}  // namespace cdpd
