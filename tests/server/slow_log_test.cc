// The bounded slow-request record: slowest-N ordering and eviction,
// the recent ring /trace?id= resolves from, and the JSON shapes the
// HTTP endpoints serve.

#include "server/slow_log.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace cdpd {
namespace {

SlowLogEntry Entry(const std::string& id, int64_t duration_us) {
  SlowLogEntry entry;
  entry.request_id = id;
  entry.op = "recommend";
  entry.duration_us = duration_us;
  return entry;
}

TEST(SlowLogTest, KeepsTheSlowestInOrder) {
  SlowLog log(/*capacity=*/3, /*recent_capacity=*/8);
  log.Record(Entry("a", 10));
  log.Record(Entry("b", 50));
  log.Record(Entry("c", 30));
  log.Record(Entry("d", 40));  // Evicts "a" (the fastest resident).
  log.Record(Entry("e", 5));   // Under the floor: not admitted.
  const std::vector<SlowLogEntry> slowest = log.Slowest();
  ASSERT_EQ(slowest.size(), 3u);
  EXPECT_EQ(slowest[0].request_id, "b");
  EXPECT_EQ(slowest[1].request_id, "d");
  EXPECT_EQ(slowest[2].request_id, "c");
  EXPECT_EQ(log.recorded(), 5);
}

TEST(SlowLogTest, FindResolvesRecentAndSlowEntries) {
  SlowLog log(/*capacity=*/1, /*recent_capacity=*/2);
  log.Record(Entry("slow", 1'000));
  log.Record(Entry("fast1", 1));
  log.Record(Entry("fast2", 2));
  // "slow" aged out of the 2-deep recent ring but survives in the
  // slowest set; the fast ones resolve from the ring only.
  EXPECT_TRUE(log.Find("slow").has_value());
  EXPECT_TRUE(log.Find("fast1").has_value());
  EXPECT_TRUE(log.Find("fast2").has_value());
  EXPECT_FALSE(log.Find("never-seen").has_value());
  log.Record(Entry("fast3", 3));
  EXPECT_FALSE(log.Find("fast1").has_value());  // Ring evicted it.
}

TEST(SlowLogTest, FindPrefersTheNewestRecentEntry) {
  SlowLog log(/*capacity=*/4, /*recent_capacity=*/4);
  SlowLogEntry first = Entry("dup", 10);
  first.op = "whatif";
  log.Record(first);
  SlowLogEntry second = Entry("dup", 20);
  second.op = "recommend";
  log.Record(second);
  const auto found = log.Find("dup");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->op, "recommend");
  EXPECT_EQ(found->duration_us, 20);
}

TEST(SlowLogTest, ZeroCapacityDisablesTheSlowestSet) {
  SlowLog log(/*capacity=*/0, /*recent_capacity=*/2);
  log.Record(Entry("a", 100));
  EXPECT_TRUE(log.Slowest().empty());
  EXPECT_TRUE(log.Find("a").has_value());  // Ring still works.
  SlowLog off(/*capacity=*/0, /*recent_capacity=*/0);
  off.Record(Entry("b", 100));
  EXPECT_EQ(off.recorded(), 0);
  EXPECT_FALSE(off.Find("b").has_value());
}

TEST(SlowLogTest, ToJsonCarriesEntriesAndSpans) {
  SlowLog log(/*capacity=*/2, /*recent_capacity=*/2);
  SlowLogEntry entry = Entry("json-1", 77);
  entry.wire_status = 3;
  entry.window_epoch = 9;
  entry.request_bytes = 11;
  entry.response_bytes = 22;
  Tracer::Event span;
  span.name = "request.solve";
  span.category = "server";
  span.duration_us = 70;
  entry.spans.push_back(span);
  log.Record(entry);
  const std::string json = log.ToJson();
  EXPECT_NE(json.find("\"capacity\":2"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"request_id\":\"json-1\""), std::string::npos);
  EXPECT_NE(json.find("\"wire_status\":3"), std::string::npos);
  EXPECT_NE(json.find("\"window_epoch\":9"), std::string::npos);
  EXPECT_NE(json.find("\"request.solve\""), std::string::npos);
  const std::string entry_json = log.Find("json-1")->ToJson();
  EXPECT_NE(entry_json.find("\"duration_us\":77"), std::string::npos);
  EXPECT_NE(entry_json.find("\"spans\":["), std::string::npos);
}

TEST(SlowLogTest, ManyThreadsRecordingKeepInvariantsUnderContention) {
  // Heavier than ConcurrentRecordsStayBounded below: more threads than
  // cores hammering Record() while the invariants are checked — the
  // slowest set stays sorted and capped, the recent ring never
  // overflows its capacity, and no record is lost. Runs under the TSan
  // preset (the Recorder|Journal|Replay|SlowLog filter).
  SlowLog log(/*capacity=*/16, /*recent_capacity=*/32);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string id = "c";
        id += std::to_string(t);
        id += "-";
        id += std::to_string(i);
        log.Record(Entry(id, (i * 7919 + t) % 10'000));
        if (i % 64 == 0) {
          // Concurrent readers race the writers on purpose.
          (void)log.Slowest();
          (void)log.Find("c0-0");
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(log.recorded(), kThreads * kPerThread);
  EXPECT_EQ(log.recent_capacity(), 32u);
  EXPECT_LE(log.recent_size(), log.recent_capacity());
  const std::vector<SlowLogEntry> slowest = log.Slowest();
  ASSERT_LE(slowest.size(), 16u);
  ASSERT_EQ(slowest.size(), 16u);  // 3200 records easily fill 16 slots.
  for (size_t i = 1; i < slowest.size(); ++i) {
    EXPECT_GE(slowest[i - 1].duration_us, slowest[i].duration_us);
  }
}

TEST(SlowLogTest, ConcurrentRecordsStayBounded) {
  SlowLog log(/*capacity=*/8, /*recent_capacity=*/16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < 500; ++i) {
        std::string id = "t";
        id += std::to_string(t);
        id += "-";
        id += std::to_string(i);
        log.Record(Entry(id, (t * 500 + i) % 97));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(log.recorded(), 4 * 500);
  const std::vector<SlowLogEntry> slowest = log.Slowest();
  ASSERT_EQ(slowest.size(), 8u);
  for (size_t i = 1; i < slowest.size(); ++i) {
    EXPECT_GE(slowest[i - 1].duration_us, slowest[i].duration_us);
  }
  // Everything the slowest set kept beats the global floor it implies.
  EXPECT_EQ(slowest.front().duration_us, 96);
}

}  // namespace
}  // namespace cdpd
