// Concurrency behavior of WhatIfEngine: many threads hammering
// SegmentCost agree with a serial engine, the parallel
// PrecomputeCostMatrix matches serial probes and a StatementCost
// reference cell for cell, and it prices every (shape, configuration)
// pair exactly once whatever the thread count or instrumentation.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.h"
#include "common/progress.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "cost/what_if.h"

namespace cdpd {
namespace {

class WhatIfConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Eight segments cycling over four point-query shapes.
    for (int s = 0; s < 8; ++s) {
      for (int i = 0; i < 10; ++i) {
        statements_.push_back(
            BoundStatement::SelectPoint(s % 4, s % 4, i));
      }
    }
    segments_ = SegmentFixed(statements_.size(), 10);
    what_if_ = std::make_unique<WhatIfEngine>(&model_, statements_,
                                              segments_);

    configs_.push_back(Configuration::Empty());
    for (ColumnId col = 0; col < 4; ++col) {
      configs_.push_back(Configuration({IndexDef({col})}));
    }
  }

  /// A fresh engine over the same workload (zero costings).
  std::unique_ptr<WhatIfEngine> FreshEngine() const {
    return std::make_unique<WhatIfEngine>(&model_, statements_, segments_);
  }

  Schema schema_ = MakePaperSchema();
  CostModel model_{schema_, 100'000, 1000};
  std::vector<BoundStatement> statements_;
  std::vector<Segment> segments_;
  std::vector<Configuration> configs_;
  std::unique_ptr<WhatIfEngine> what_if_;
};

TEST_F(WhatIfConcurrencyTest, ConcurrentSegmentCostMatchesSerial) {
  // Serial reference.
  std::unique_ptr<WhatIfEngine> serial = FreshEngine();
  std::vector<double> expected;
  for (size_t s = 0; s < segments_.size(); ++s) {
    for (const Configuration& config : configs_) {
      expected.push_back(serial->SegmentCost(s, config));
    }
  }

  // 8 threads, each probing every (segment, config) pair 4 times.
  const size_t num_pairs = segments_.size() * configs_.size();
  std::vector<double> got(8 * num_pairs, 0.0);
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 4; ++rep) {
        size_t pair = 0;
        for (size_t s = 0; s < segments_.size(); ++s) {
          for (const Configuration& config : configs_) {
            got[t * num_pairs + pair++] = what_if_->SegmentCost(s, config);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int t = 0; t < 8; ++t) {
    for (size_t pair = 0; pair < num_pairs; ++pair) {
      ASSERT_EQ(got[t * num_pairs + pair], expected[pair])
          << "thread " << t << " pair " << pair;
    }
  }
  // Every probe is costed (nothing is memoized), and the atomic
  // counter loses none of the 8x4 concurrent probe rounds.
  EXPECT_EQ(what_if_->costings(), 8 * 4 * serial->costings());
}

TEST_F(WhatIfConcurrencyTest, PrecomputeCostMatrixMatchesSerialProbes) {
  ThreadPool pool(4);
  std::unique_ptr<WhatIfEngine> parallel_engine = FreshEngine();
  Result<CostMatrix> matrix_result =
      parallel_engine->PrecomputeCostMatrix(configs_, {.pool = &pool});
  ASSERT_TRUE(matrix_result.ok()) << matrix_result.status().ToString();
  const CostMatrix& matrix = *matrix_result;

  ASSERT_EQ(matrix.num_segments(), segments_.size());
  ASSERT_EQ(matrix.num_configs(), configs_.size());
  EXPECT_TRUE(matrix.complete());

  std::unique_ptr<WhatIfEngine> serial = FreshEngine();
  for (size_t s = 0; s < segments_.size(); ++s) {
    for (size_t c = 0; c < configs_.size(); ++c) {
      EXPECT_EQ(matrix.Exec(s, c), serial->SegmentCost(s, configs_[c]))
          << "exec(" << s << ", " << c << ")";
    }
  }
  for (size_t from = 0; from < configs_.size(); ++from) {
    for (size_t to = 0; to < configs_.size(); ++to) {
      EXPECT_EQ(matrix.Trans(from, to),
                serial->TransitionCost(configs_[from], configs_[to]))
          << "trans(" << from << ", " << to << ")";
    }
  }
  // The fill prices each (shape, configuration) pair exactly once.
  EXPECT_EQ(parallel_engine->costings(),
            static_cast<int64_t>(parallel_engine->workload_profile().size() *
                                 configs_.size()));
}

TEST_F(WhatIfConcurrencyTest, PrecomputeCostingsAreShapesTimesConfigs) {
  // |workload_profile()| x m for any thread count, traced or not.
  const auto expected = static_cast<int64_t>(
      what_if_->workload_profile().size() * configs_.size());
  ASSERT_EQ(what_if_->workload_profile().size(), 4u);
  for (const int threads : {1, 4}) {
    for (const bool traced : {false, true}) {
      ThreadPool pool(threads);
      Tracer tracer;
      std::unique_ptr<WhatIfEngine> engine = FreshEngine();
      ASSERT_TRUE(engine
                      ->PrecomputeCostMatrix(
                          configs_, {.pool = &pool,
                                     .tracer = traced ? &tracer : nullptr})
                      .ok());
      EXPECT_EQ(engine->costings(), expected)
          << threads << " threads, traced = " << traced;
    }
  }
}

// EXEC(S_i, C) straight from the cost model: count x StatementCost
// over segment i's literal-erased shapes in first-appearance order.
double ReferenceExec(const CostModel& model,
                     std::span<const BoundStatement> statements,
                     const Segment& segment, const Configuration& config) {
  std::vector<std::pair<BoundStatement, int64_t>> profile;
  for (size_t i = segment.begin; i < segment.end; ++i) {
    BoundStatement shape = statements[i];
    shape.where_value = 0;
    shape.set_value = 0;
    if (shape.type == StatementType::kSelectRange) {
      shape.where_hi -= shape.where_lo;
      shape.where_lo = 0;
    }
    auto it = std::find_if(profile.begin(), profile.end(), [&](const auto& e) {
      return e.first == shape;
    });
    if (it != profile.end()) {
      ++it->second;
    } else {
      profile.emplace_back(shape, 1);
    }
  }
  double cost = 0.0;
  for (const auto& [shape, count] : profile) {
    cost += static_cast<double>(count) * model.StatementCost(shape, config);
  }
  return cost;
}

TEST_F(WhatIfConcurrencyTest, PrecomputeMatchesStatementCostReference) {
  // A many-shape window: half range statements of widths up to 1000 at
  // scattered positions, half point queries and updates.
  std::vector<BoundStatement> statements;
  std::mt19937 rng(17);
  for (int i = 0; i < 2000; ++i) {
    const auto column = static_cast<ColumnId>(rng() % 4);
    const auto value = static_cast<Value>(rng() % 90'000);
    if (rng() % 2 == 0) {
      statements.push_back(BoundStatement::SelectRange(
          column, column, value, value + static_cast<Value>(rng() % 1001)));
    } else if (rng() % 4 == 0) {
      statements.push_back(BoundStatement::UpdatePoint(
          column, value, static_cast<ColumnId>((column + 1) % 4), value));
    } else {
      statements.push_back(BoundStatement::SelectPoint(column, column, value));
    }
  }
  const std::vector<Segment> segments = SegmentFixed(statements.size(), 100);
  std::vector<Configuration> configs = configs_;
  configs.push_back(Configuration({IndexDef({0, 1}), IndexDef({2})}));

  ThreadPool pool(4);
  WhatIfEngine engine(&model_, statements, segments);
  ASSERT_GT(engine.workload_profile().size(), 200u);
  const CostMatrix matrix =
      engine.PrecomputeCostMatrix(configs, {.pool = &pool}).value();
  for (size_t s = 0; s < segments.size(); ++s) {
    for (size_t c = 0; c < configs.size(); ++c) {
      EXPECT_EQ(matrix.Exec(s, c),
                ReferenceExec(model_, statements, segments[s], configs[c]))
          << "exec(" << s << ", " << c << ")";
    }
  }
  // Every (shape, configuration) pair was priced exactly once.
  EXPECT_EQ(engine.costings(),
            static_cast<int64_t>(engine.workload_profile().size() *
                                 configs.size()));
}

TEST_F(WhatIfConcurrencyTest, PrecomputeWithNullPoolIsIdentical) {
  std::unique_ptr<WhatIfEngine> a = FreshEngine();
  std::unique_ptr<WhatIfEngine> b = FreshEngine();
  ThreadPool pool(4);
  const CostMatrix serial_matrix =
      a->PrecomputeCostMatrix(configs_).value();
  const CostMatrix parallel_matrix =
      b->PrecomputeCostMatrix(configs_, {.pool = &pool}).value();
  for (size_t s = 0; s < segments_.size(); ++s) {
    for (size_t c = 0; c < configs_.size(); ++c) {
      ASSERT_EQ(serial_matrix.Exec(s, c), parallel_matrix.Exec(s, c));
    }
  }
  for (size_t from = 0; from < configs_.size(); ++from) {
    for (size_t to = 0; to < configs_.size(); ++to) {
      ASSERT_EQ(serial_matrix.Trans(from, to),
                parallel_matrix.Trans(from, to));
    }
  }
  EXPECT_EQ(a->costings(), b->costings());
}

TEST_F(WhatIfConcurrencyTest, PrecomputeWithProgressAndLoggerOnlyObserves) {
  // The instrumented fill takes the coarser sharded path (progress !=
  // nullptr) with updates fired from worker threads — under TSan this
  // proves the callback/logger locking discipline; everywhere it
  // proves instrumentation cannot perturb a single matrix cell.
  ThreadPool pool(4);
  std::unique_ptr<WhatIfEngine> instrumented = FreshEngine();
  Logger logger(LogLevel::kDebug);
  std::mutex mutex;
  std::vector<double> fractions;
  ProgressFn progress = [&](const ProgressUpdate& update) {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_STREQ(update.phase, "whatif.precompute");
    fractions.push_back(update.fraction);
  };
  const CostMatrix instrumented_matrix =
      instrumented
          ->PrecomputeCostMatrix(configs_, {.pool = &pool,
                                            .progress = &progress,
                                            .logger = &logger})
          .value();

  std::unique_ptr<WhatIfEngine> plain = FreshEngine();
  const CostMatrix plain_matrix =
      plain->PrecomputeCostMatrix(configs_, {.pool = &pool}).value();
  for (size_t s = 0; s < segments_.size(); ++s) {
    for (size_t c = 0; c < configs_.size(); ++c) {
      ASSERT_EQ(instrumented_matrix.Exec(s, c), plain_matrix.Exec(s, c));
    }
  }
  for (size_t from = 0; from < configs_.size(); ++from) {
    for (size_t to = 0; to < configs_.size(); ++to) {
      ASSERT_EQ(instrumented_matrix.Trans(from, to),
                plain_matrix.Trans(from, to));
    }
  }
  EXPECT_EQ(instrumented->costings(), plain->costings());

  // Every shard reported a fraction in (0, 1], and the last one
  // reported exactly 1.0 (done == num_shards).
  ASSERT_FALSE(fractions.empty());
  for (double fraction : fractions) {
    EXPECT_GT(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
  }
  EXPECT_DOUBLE_EQ(*std::max_element(fractions.begin(), fractions.end()),
                   1.0);

  // The logger captured the precompute bracket.
  const std::string log = logger.ToJsonl();
  EXPECT_NE(log.find("\"event\":\"whatif.precompute.start\""),
            std::string::npos);
  EXPECT_NE(log.find("\"event\":\"whatif.precompute.end\""),
            std::string::npos);
  EXPECT_NE(log.find("\"complete\":true"), std::string::npos);
}

}  // namespace
}  // namespace cdpd
