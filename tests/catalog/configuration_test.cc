#include "catalog/configuration.h"

#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace cdpd {
namespace {

class ConfigurationTest : public ::testing::Test {
 protected:
  Schema schema_ = MakePaperSchema();
  IndexDef a_ = IndexDef({0});
  IndexDef b_ = IndexDef({1});
  IndexDef ab_ = IndexDef({0, 1});
};

TEST_F(ConfigurationTest, EmptyConfiguration) {
  const Configuration empty = Configuration::Empty();
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.num_indexes(), 0);
  EXPECT_EQ(empty.SizePages(1'000'000), 0);
  EXPECT_EQ(empty.ToString(schema_), "{}");
}

TEST_F(ConfigurationTest, CanonicalizesOrderAndDuplicates) {
  const Configuration c1({b_, a_, a_});
  const Configuration c2({a_, b_});
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(c1.num_indexes(), 2);
}

TEST_F(ConfigurationTest, ContainsAndWithWithout) {
  Configuration c({a_});
  EXPECT_TRUE(c.Contains(a_));
  EXPECT_FALSE(c.Contains(b_));
  const Configuration grown = c.With(b_);
  EXPECT_TRUE(grown.Contains(b_));
  EXPECT_EQ(grown.num_indexes(), 2);
  EXPECT_EQ(c.With(a_), c);  // No-op.
  EXPECT_EQ(grown.Without(b_), c);
  EXPECT_EQ(c.Without(b_), c);  // No-op.
}

TEST_F(ConfigurationTest, SizeSumsIndexSizes) {
  const Configuration c({a_, ab_});
  EXPECT_EQ(c.SizePages(100'000),
            a_.SizePages(100'000) + ab_.SizePages(100'000));
}

TEST_F(ConfigurationTest, ToStringListsIndexes) {
  const Configuration c({ab_, a_});
  EXPECT_EQ(c.ToString(schema_), "{I(a), I(a,b)}");
}

TEST_F(ConfigurationTest, HashConsistentWithEquality) {
  const Configuration c1({b_, a_});
  const Configuration c2({a_, b_});
  EXPECT_EQ(ConfigurationHash{}(c1), ConfigurationHash{}(c2));
}

TEST_F(ConfigurationTest, OrderingIsTotal) {
  const Configuration empty;
  const Configuration c({a_});
  EXPECT_TRUE(empty < c || c < empty || empty == c);
  EXPECT_FALSE(c < c);
}

TEST_F(ConfigurationTest, DiffComputesCreatedAndDropped) {
  const Configuration from({a_, b_});
  const Configuration to({b_, ab_});
  const ConfigurationDelta delta = DiffConfigurations(from, to);
  ASSERT_EQ(delta.created.size(), 1u);
  EXPECT_EQ(delta.created[0], ab_);
  ASSERT_EQ(delta.dropped.size(), 1u);
  EXPECT_EQ(delta.dropped[0], a_);
}

TEST_F(ConfigurationTest, DiffOfEqualConfigsIsEmpty) {
  const Configuration c({a_, b_});
  const ConfigurationDelta delta = DiffConfigurations(c, c);
  EXPECT_TRUE(delta.created.empty());
  EXPECT_TRUE(delta.dropped.empty());
}

TEST_F(ConfigurationTest, DiffFromEmptyCreatesEverything) {
  const Configuration to({a_, b_});
  const ConfigurationDelta delta = DiffConfigurations(Configuration(), to);
  EXPECT_EQ(delta.created.size(), 2u);
  EXPECT_TRUE(delta.dropped.empty());
}

/// Configurations over every subset of {I(a), I(b), I(a,b), I(c)},
/// each built twice from its own index list, so equal values hold
/// separate storage.
std::vector<Configuration> EverySubsetTwice() {
  const std::vector<IndexDef> pool = {IndexDef({0}), IndexDef({1}),
                                      IndexDef({0, 1}), IndexDef({2})};
  std::vector<Configuration> out;
  for (int copy = 0; copy < 2; ++copy) {
    for (unsigned subset = 0; subset < (1u << pool.size()); ++subset) {
      std::vector<IndexDef> indexes;
      for (size_t i = 0; i < pool.size(); ++i) {
        if ((subset >> i) & 1u) indexes.push_back(pool[i]);
      }
      out.emplace_back(std::move(indexes));
    }
  }
  return out;
}

TEST_F(ConfigurationTest, CopiesShareTheirIndexStorage) {
  const Configuration c({a_, ab_});
  const Configuration copy(c);
  EXPECT_EQ(&copy.indexes(), &c.indexes());
  const Configuration rebuilt({ab_, a_});
  EXPECT_NE(&rebuilt.indexes(), &c.indexes());
  EXPECT_EQ(rebuilt, c);
  Configuration moved = copy;
  const Configuration target = std::move(moved);
  EXPECT_EQ(&target.indexes(), &c.indexes());
  // The empty configuration holds no storage, however it was built.
  EXPECT_TRUE(Configuration(std::vector<IndexDef>{}).empty());
  EXPECT_EQ(Configuration(std::vector<IndexDef>{}), Configuration());
  EXPECT_TRUE(Configuration().indexes().empty());
  EXPECT_EQ(c.Without(a_).Without(ab_), Configuration());
  EXPECT_TRUE(c.Without(a_).Without(ab_).empty());
}

TEST_F(ConfigurationTest, ComparisonsAndHashMatchTheIndexLists) {
  const std::vector<Configuration> configs = EverySubsetTwice();
  for (const Configuration& x : configs) {
    for (const Configuration& y : configs) {
      EXPECT_EQ(x == y, x.indexes() == y.indexes());
      EXPECT_EQ(x < y, x.indexes() < y.indexes());
      if (x == y) {
        EXPECT_EQ(ConfigurationHash{}(x), ConfigurationHash{}(y));
      }
    }
  }
}

TEST_F(ConfigurationTest, WithAndWithoutLeaveTheSourceUnchanged) {
  for (const Configuration& source : EverySubsetTwice()) {
    const std::vector<IndexDef> before = source.indexes();
    for (const IndexDef& def : {a_, b_, ab_, IndexDef({3})}) {
      const Configuration grown = source.With(def);
      const Configuration shrunk = source.Without(def);
      EXPECT_EQ(source.indexes(), before);
      EXPECT_TRUE(grown.Contains(def));
      EXPECT_FALSE(shrunk.Contains(def));
      EXPECT_EQ(grown.num_indexes(),
                source.num_indexes() + (source.Contains(def) ? 0 : 1));
      EXPECT_EQ(shrunk.num_indexes(),
                source.num_indexes() - (source.Contains(def) ? 1 : 0));
    }
  }
}

TEST_F(ConfigurationTest, CopiesAndDestructionsFromSeveralThreads) {
  const std::vector<Configuration> shared = EverySubsetTwice();
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&shared, &mismatches, t] {
      for (int round = 0; round < 200; ++round) {
        std::vector<Configuration> copies(shared.begin(), shared.end());
        for (size_t i = 0; i < copies.size(); ++i) {
          if (!(copies[i] == shared[i]) ||
              &copies[i].indexes() != &shared[i].indexes()) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int count : mismatches) EXPECT_EQ(count, 0);
  const std::vector<Configuration> fresh = EverySubsetTwice();
  ASSERT_EQ(shared.size(), fresh.size());
  for (size_t i = 0; i < shared.size(); ++i) {
    EXPECT_EQ(shared[i].indexes(), fresh[i].indexes());
  }
}

}  // namespace
}  // namespace cdpd
