// The resource-accounting layer: per-component current/peak gauges,
// the soft-limit contract (TryReserve refuses and charges nothing; an
// unconditional Reserve that lands past the limit trips the monotone
// flag), the RAII reservation, the counting allocator, and the Budget
// integration that turns a tripped limit into an anytime expiry. The
// concurrency test runs under TSan in CI.

#include "common/resource_tracker.h"

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/metrics.h"

namespace cdpd {
namespace {

constexpr MemComponent kA = MemComponent::kCostMatrix;
constexpr MemComponent kB = MemComponent::kKAwareTable;

TEST(ResourceTrackerTest, ReserveAndReleaseDriveCurrentAndPeak) {
  ResourceTracker tracker;
  tracker.Reserve(kA, 100);
  tracker.Reserve(kA, 50);
  EXPECT_EQ(tracker.current_bytes(kA), 150);
  EXPECT_EQ(tracker.peak_bytes(kA), 150);
  tracker.Release(kA, 120);
  EXPECT_EQ(tracker.current_bytes(kA), 30);
  EXPECT_EQ(tracker.peak_bytes(kA), 150);  // Peak never falls.
  EXPECT_EQ(tracker.current_total(), 30);
  EXPECT_EQ(tracker.peak_total(), 150);
  EXPECT_FALSE(tracker.limit_exceeded());
}

TEST(ResourceTrackerTest, TotalPeakIsConcurrentHighWaterNotSumOfPeaks) {
  ResourceTracker tracker;
  // A's 100 is released before B's 100 lands, so the two peaks never
  // coexist: per-component peaks are both 100, the total peak is 100.
  tracker.Reserve(kA, 100);
  tracker.Release(kA, 100);
  tracker.Reserve(kB, 100);
  EXPECT_EQ(tracker.peak_bytes(kA), 100);
  EXPECT_EQ(tracker.peak_bytes(kB), 100);
  EXPECT_EQ(tracker.peak_total(), 100);
}

TEST(ResourceTrackerTest, ZeroAndNegativeChargesAreIgnored) {
  ResourceTracker tracker;
  tracker.Reserve(kA, 0);
  tracker.Reserve(kA, -5);
  tracker.Release(kA, -5);
  EXPECT_EQ(tracker.current_total(), 0);
  EXPECT_EQ(tracker.peak_total(), 0);
}

TEST(ResourceTrackerTest, TryReserveRefusesPastTheLimitAndChargesNothing) {
  ResourceTracker tracker(/*limit_bytes=*/1000);
  EXPECT_EQ(tracker.limit_bytes(), 1000);
  EXPECT_TRUE(tracker.TryReserve(kA, 600));
  EXPECT_FALSE(tracker.limit_exceeded());
  // 600 + 500 would pass 1000: refused, nothing charged, flag tripped.
  EXPECT_FALSE(tracker.TryReserve(kB, 500));
  EXPECT_EQ(tracker.current_bytes(kB), 0);
  EXPECT_EQ(tracker.current_total(), 600);
  EXPECT_TRUE(tracker.limit_exceeded());
  // Once tripped, even a fitting reservation is refused: expiry is
  // monotone, the solve is already winding down.
  EXPECT_FALSE(tracker.TryReserve(kB, 10));
  EXPECT_EQ(tracker.current_total(), 600);
}

TEST(ResourceTrackerTest, UnconditionalReservePastTheLimitTripsTheFlag) {
  ResourceTracker tracker(/*limit_bytes=*/100);
  tracker.Reserve(kA, 150);  // Lands (the allocation already happened).
  EXPECT_EQ(tracker.current_total(), 150);
  EXPECT_TRUE(tracker.limit_exceeded());
  tracker.Release(kA, 150);
  // Releasing never un-trips the flag.
  EXPECT_TRUE(tracker.limit_exceeded());
}

TEST(ResourceTrackerTest, NoLimitMeansTryReserveAlwaysSucceeds) {
  ResourceTracker tracker;
  EXPECT_TRUE(tracker.TryReserve(kA, int64_t{1} << 60));
  EXPECT_FALSE(tracker.limit_exceeded());
}

TEST(ResourceTrackerTest, PublishToMirrorsPeaksIntoTheRegistry) {
  ResourceTracker tracker(/*limit_bytes=*/100);
  tracker.Reserve(kA, 150);
  tracker.Release(kA, 150);
  MetricsRegistry registry;
  tracker.PublishTo(&registry);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.GaugeValue("mem.cost_matrix.peak_bytes"), 150);
  EXPECT_EQ(snapshot.GaugeValue("mem.peak_bytes_total"), 150);
  EXPECT_EQ(snapshot.CounterValue("mem.limit_exceeded"), 1);
  // Untouched components publish no gauge at all.
  EXPECT_EQ(snapshot.GaugeValue("mem.kaware_table.peak_bytes"), 0);
  tracker.PublishTo(nullptr);  // Null sink: no-op.
}

TEST(ScopedReservationTest, ReleasesOnDestruction) {
  ResourceTracker tracker;
  {
    ScopedReservation r(&tracker, kA, 256);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.bytes(), 256);
    EXPECT_EQ(tracker.current_total(), 256);
  }
  EXPECT_EQ(tracker.current_total(), 0);
  EXPECT_EQ(tracker.peak_total(), 256);
}

TEST(ScopedReservationTest, MoveTransfersTheCharge) {
  ResourceTracker tracker;
  ScopedReservation outer;
  {
    ScopedReservation inner(&tracker, kA, 100);
    outer = std::move(inner);
  }
  // The moved-from reservation released nothing; the charge lives on.
  EXPECT_EQ(tracker.current_total(), 100);
  outer = ScopedReservation();
  EXPECT_EQ(tracker.current_total(), 0);
}

TEST(ScopedReservationTest, TryRefusalIsVisibleAndChargesNothing) {
  ResourceTracker tracker(/*limit_bytes=*/100);
  ScopedReservation refused = ScopedReservation::Try(&tracker, kA, 200);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(tracker.current_total(), 0);
  EXPECT_TRUE(tracker.limit_exceeded());
}

TEST(ScopedReservationTest, NullTrackerIsASuccessfulNoOp) {
  ScopedReservation null_scoped(nullptr, kA, 100);
  EXPECT_TRUE(null_scoped.ok());
  ScopedReservation null_try = ScopedReservation::Try(nullptr, kA, 100);
  EXPECT_TRUE(null_try.ok());
  ScopedReservation defaulted;
  EXPECT_TRUE(defaulted.ok());
}

TEST(TrackingAllocatorTest, ContainerGrowthIsChargedAndReleased) {
  using Allocator = TrackingAllocator<int64_t, MemComponent::kMergingTable>;
  // The component is part of the type: the allocator is one pointer.
  static_assert(sizeof(Allocator) == sizeof(ResourceTracker*));
  ResourceTracker tracker;
  {
    std::vector<int64_t, Allocator> v{Allocator(&tracker)};
    for (int i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_GE(tracker.current_bytes(MemComponent::kMergingTable),
              static_cast<int64_t>(1000 * sizeof(int64_t)));
    EXPECT_EQ(tracker.current_bytes(MemComponent::kRankingQueue), 0);
  }
  EXPECT_EQ(tracker.current_bytes(MemComponent::kMergingTable), 0);
  EXPECT_GE(tracker.peak_bytes(MemComponent::kMergingTable),
            static_cast<int64_t>(1000 * sizeof(int64_t)));
}

TEST(TrackingAllocatorTest, DefaultAllocatorCountsNothing) {
  std::vector<int64_t,
              TrackingAllocator<int64_t, MemComponent::kRankingQueue>>
      v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);  // Allocation works without a tracker.
}

TEST(ResourceTrackerTest, ConcurrentReservesSumExactly) {
  ResourceTracker tracker;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker] {
      for (int i = 0; i < kIters; ++i) {
        tracker.Reserve(kA, 3);
        tracker.Release(kA, 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(tracker.current_total(),
            int64_t{kThreads} * kIters * (3 - 1));
  EXPECT_GE(tracker.peak_total(), tracker.current_total());
}

TEST(BudgetMemoryTest, TrippedTrackerExpiresTheBudget) {
  ResourceTracker tracker(/*limit_bytes=*/100);
  Budget budget;
  budget.set_tracker(&tracker);
  EXPECT_FALSE(budget.Expired());
  tracker.Reserve(kA, 200);
  EXPECT_TRUE(budget.Expired());
  // Expiry stays latched even after the memory is returned.
  tracker.Release(kA, 200);
  EXPECT_TRUE(budget.Expired());
}

TEST(ProcessClockTest, CpuAndRssProbesReturnSaneValues) {
  const int64_t thread_cpu = ThreadCpuTimeMicros();
  const int64_t process_cpu = ProcessCpuTimeMicros();
  EXPECT_GE(thread_cpu, 0);
  EXPECT_GE(process_cpu, 0);
  // Clocks are monotone.
  EXPECT_GE(ThreadCpuTimeMicros(), thread_cpu);
  EXPECT_GE(ProcessCpuTimeMicros(), process_cpu);
#if defined(__linux__)
  EXPECT_GT(CurrentRssBytes(), 0);
  EXPECT_GT(PeakRssBytes(), 0);
  EXPECT_GE(PeakRssBytes(), CurrentRssBytes() / 2);  // Same order.
#endif
}

TEST(ProcessClockTest, SampleProcessMemoryPublishesGauges) {
  MetricsRegistry registry;
  SampleProcessMemory(&registry);
  SampleProcessMemory(nullptr);  // Null sink: no-op.
#if defined(__linux__)
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_GT(snapshot.GaugeValue("process.rss_bytes"), 0);
  EXPECT_GE(snapshot.GaugeValue("process.rss_peak_bytes"),
            snapshot.GaugeValue("process.rss_bytes"));
#endif
}

}  // namespace
}  // namespace cdpd
