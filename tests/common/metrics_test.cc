#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/solve_stats.h"

namespace cdpd {
namespace {

TEST(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42);
}

TEST(MetricsTest, GaugeSetAndUpdateMax) {
  Gauge gauge;
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.UpdateMax(3);  // Lower: no effect.
  EXPECT_EQ(gauge.Value(), 7);
  gauge.UpdateMax(11);
  EXPECT_EQ(gauge.Value(), 11);
  gauge.Set(2);  // Set is last-write-wins, even downward.
  EXPECT_EQ(gauge.Value(), 2);
}

TEST(MetricsTest, GaugeUpdateMaxTracksNegativePeaks) {
  // A fresh gauge is unset, not zero: the first recorded peak wins
  // even when it is negative (a zero-initialized gauge would silently
  // swallow it).
  Gauge gauge;
  gauge.UpdateMax(-5);
  EXPECT_EQ(gauge.Value(), -5);
  gauge.UpdateMax(-9);  // Lower peak: no effect.
  EXPECT_EQ(gauge.Value(), -5);
  gauge.UpdateMax(-2);
  EXPECT_EQ(gauge.Value(), -2);
  // Never-touched gauges still read as 0 in snapshots.
  Gauge untouched;
  EXPECT_EQ(untouched.Value(), 0);
}

TEST(MetricsTest, HistogramExactFieldsAndBucketedPercentiles) {
  Histogram histogram;
  // 100 values 1..100: count/sum/min/max are exact, percentiles come
  // from log2 buckets so only order-of-magnitude bounds hold.
  double sum = 0.0;
  for (int i = 1; i <= 100; ++i) {
    histogram.Record(static_cast<double>(i));
    sum += i;
  }
  const HistogramStats stats = histogram.Snapshot();
  EXPECT_EQ(stats.count, 100);
  EXPECT_DOUBLE_EQ(stats.sum, sum);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 100.0);
  // True p50 = 50 lives in bucket (32, 64]; p95/p99 in (64, 128].
  EXPECT_GE(stats.p50, 32.0);
  EXPECT_LE(stats.p50, 64.0);
  EXPECT_GE(stats.p95, 64.0);
  EXPECT_LE(stats.p95, 128.0);
  EXPECT_GE(stats.p99, 64.0);
  EXPECT_LE(stats.p99, 128.0);
  EXPECT_LE(stats.p50, stats.p95);
  EXPECT_LE(stats.p95, stats.p99);
}

TEST(MetricsTest, EmptyHistogramSnapshotIsZeroed) {
  Histogram histogram;
  const HistogramStats stats = histogram.Snapshot();
  EXPECT_EQ(stats.count, 0);
  EXPECT_DOUBLE_EQ(stats.sum, 0.0);
  EXPECT_DOUBLE_EQ(stats.min, 0.0);
  EXPECT_DOUBLE_EQ(stats.max, 0.0);
  EXPECT_DOUBLE_EQ(stats.p50, 0.0);
}

TEST(MetricsTest, SingleSampleHistogramCollapsesToThatSample) {
  Histogram histogram;
  histogram.Record(42.0);
  const HistogramStats stats = histogram.Snapshot();
  EXPECT_EQ(stats.count, 1);
  EXPECT_DOUBLE_EQ(stats.sum, 42.0);
  EXPECT_DOUBLE_EQ(stats.min, 42.0);
  EXPECT_DOUBLE_EQ(stats.max, 42.0);
  // Bucketed estimates are clamped to [min, max], so every percentile
  // of a single sample is exactly that sample.
  EXPECT_DOUBLE_EQ(stats.p50, 42.0);
  EXPECT_DOUBLE_EQ(stats.p95, 42.0);
  EXPECT_DOUBLE_EQ(stats.p99, 42.0);
}

TEST(MetricsTest, AllEqualSamplesReportTheConstant) {
  Histogram histogram;
  for (int i = 0; i < 1'000; ++i) histogram.Record(7.0);
  const HistogramStats stats = histogram.Snapshot();
  EXPECT_EQ(stats.count, 1'000);
  EXPECT_DOUBLE_EQ(stats.p50, 7.0);
  EXPECT_DOUBLE_EQ(stats.p95, 7.0);
  EXPECT_DOUBLE_EQ(stats.p99, 7.0);
  EXPECT_DOUBLE_EQ(stats.min, 7.0);
  EXPECT_DOUBLE_EQ(stats.max, 7.0);
}

TEST(MetricsTest, GaugeAddTreatsUnsetAsZero) {
  Gauge gauge;
  gauge.Add(5);  // Unset sentinel must read as 0, not INT64_MIN.
  EXPECT_EQ(gauge.Value(), 5);
  gauge.Add(-2);
  EXPECT_EQ(gauge.Value(), 3);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 0);
  Gauge seeded;
  seeded.Set(10);
  seeded.Add(1);
  EXPECT_EQ(seeded.Value(), 11);
}

TEST(MetricsTest, HistogramExemplarTracksLastTaggedSample) {
  Histogram histogram;
  histogram.Record(5.0);  // Untagged: no exemplar.
  EXPECT_TRUE(histogram.Snapshot().exemplar_id.empty());
  histogram.Record(9.0, "req-1");
  histogram.Record(2.0, "req-2");
  const HistogramStats stats = histogram.Snapshot();
  EXPECT_EQ(stats.exemplar_id, "req-2");
  EXPECT_DOUBLE_EQ(stats.exemplar_value, 2.0);
  EXPECT_EQ(stats.count, 3);
}

TEST(MetricsTest, PrometheusMetricNameSanitizesTheAlphabet) {
  EXPECT_EQ(PrometheusMetricName("server.request_us"), "server_request_us");
  EXPECT_EQ(PrometheusMetricName("cost_cache.hits"), "cost_cache_hits");
  EXPECT_EQ(PrometheusMetricName("a-b/c d"), "a_b_c_d");
  EXPECT_EQ(PrometheusMetricName("ns:metric"), "ns:metric");  // Colons ok.
  EXPECT_EQ(PrometheusMetricName("9lives"), "_9lives");  // No leading digit.
  EXPECT_EQ(PrometheusMetricName(""), "_");
}

TEST(MetricsTest, ToPrometheusRendersEveryKind) {
  MetricsRegistry registry;
  registry.counter("server.requests")->Add(3);
  registry.gauge("server.inflight_requests")->Set(1);
  Histogram* latency = registry.histogram("server.request_us");
  for (int i = 0; i < 10; ++i) latency->Record(100.0, "req-x");
  const std::string text = registry.Snapshot().ToPrometheus();
  EXPECT_NE(text.find("# TYPE server_requests counter\n"), std::string::npos);
  EXPECT_NE(text.find("server_requests 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE server_inflight_requests gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("server_inflight_requests 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE server_request_us summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("server_request_us{quantile=\"0.5\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("server_request_us{quantile=\"0.95\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("server_request_us{quantile=\"0.99\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("server_request_us_sum 1000\n"), std::string::npos);
  EXPECT_NE(text.find("server_request_us_count 10\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE server_request_us_min gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE server_request_us_max gauge\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("# exemplar server_request_us request_id=\"req-x\" value="),
      std::string::npos);
}

TEST(MetricsTest, ToPrometheusDisambiguatesCollidingSanitizedNames) {
  MetricsRegistry registry;
  // Distinct registry names, one sanitized Prometheus name.
  registry.counter("op.stats")->Add(1);
  registry.counter("op_stats")->Add(2);
  const std::string text = registry.Snapshot().ToPrometheus();
  EXPECT_NE(text.find("# TYPE op_stats counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE op_stats_2 counter\n"), std::string::npos);
  // Exactly one bare "op_stats <value>" sample line.
  size_t bare = 0;
  for (size_t pos = 0; (pos = text.find("\nop_stats ", pos)) !=
                       std::string::npos;
       ++pos) {
    ++bare;
  }
  EXPECT_EQ(bare, 1u);
}

TEST(MetricsTest, ToPrometheusReservesSummarySumAndCountSeries) {
  MetricsRegistry registry;
  // A counter whose sanitized name equals the summary's _sum series:
  // the summary must move aside as a whole (its three series share a
  // base), leaving exactly one sample per series name.
  registry.counter("server.request_us_sum")->Add(7);
  registry.histogram("server.request_us")->Record(100.0);
  const std::string text = registry.Snapshot().ToPrometheus();
  EXPECT_NE(text.find("# TYPE server_request_us_sum counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("server_request_us_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE server_request_us_2 summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("server_request_us_2_sum 100\n"), std::string::npos);
  EXPECT_NE(text.find("server_request_us_2_count 1\n"), std::string::npos);
  // Exactly one "server_request_us_sum <value>" sample line.
  size_t sum_samples = 0;
  for (size_t pos = 0;
       (pos = text.find("\nserver_request_us_sum ", pos)) !=
       std::string::npos;
       ++pos) {
    ++sum_samples;
  }
  EXPECT_EQ(sum_samples, 1u);
}

TEST(MetricsTest, RegistryIsIdempotentWithStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.counter("solver.costings");
  Counter* c2 = registry.counter("solver.costings");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, registry.counter("cost_cache.hits"));
  EXPECT_EQ(registry.gauge("pool.threads"), registry.gauge("pool.threads"));
  EXPECT_EQ(registry.histogram("whatif.cost_us"),
            registry.histogram("whatif.cost_us"));
  // Counter / gauge / histogram namespaces are independent.
  c1->Add(5);
  registry.gauge("solver.costings")->Set(9);
  EXPECT_EQ(c1->Value(), 5);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("solver.costings"), 5);
  EXPECT_EQ(snapshot.GaugeValue("solver.costings"), 9);
}

TEST(MetricsTest, SnapshotReturnsZeroForAbsentNames) {
  MetricsRegistry registry;
  registry.counter("present")->Add(1);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("absent"), 0);
  EXPECT_EQ(snapshot.GaugeValue("absent"), 0);
  EXPECT_EQ(snapshot.CounterValue("present"), 1);
}

TEST(MetricsTest, SnapshotJsonAndTextContainMetricNames) {
  MetricsRegistry registry;
  registry.counter("solver.costings")->Add(3);
  registry.gauge("pool.threads")->Set(8);
  registry.histogram("whatif.cost_us")->Record(12.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("solver.costings"), std::string::npos);
  EXPECT_NE(json.find("pool.threads"), std::string::npos);
  EXPECT_NE(json.find("whatif.cost_us"), std::string::npos);
  const std::string text = snapshot.ToText();
  EXPECT_NE(text.find("solver.costings"), std::string::npos);
  EXPECT_NE(text.find("whatif.cost_us"), std::string::npos);
}

TEST(MetricsTest, GlobalRegistryIsASingleton) {
  ASSERT_NE(MetricsRegistry::Global(), nullptr);
  EXPECT_EQ(MetricsRegistry::Global(), MetricsRegistry::Global());
}

TEST(MetricsTest, SolveStatsRoundTripsThroughRegistry) {
  SolveStats stats;
  stats.wall_seconds = 0.25;
  stats.costings = 1200;
  stats.threads_used = 8;
  stats.nodes_expanded = 77;
  stats.relaxations = 13;
  stats.paths_enumerated = 5;
  stats.merge_steps = 4;
  stats.candidate_evaluations = 9;

  MetricsRegistry registry;
  stats.PublishTo(&registry);
  stats.PublishTo(nullptr);  // Null registry must be a no-op, not a crash.

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("solver.solves"), 1);
  const SolveStats back = SolveStats::FromSnapshot(snapshot);
  EXPECT_NEAR(back.wall_seconds, stats.wall_seconds, 1e-6);
  EXPECT_EQ(back.costings, stats.costings);
  EXPECT_EQ(back.threads_used, stats.threads_used);
  EXPECT_EQ(back.nodes_expanded, stats.nodes_expanded);
  EXPECT_EQ(back.relaxations, stats.relaxations);
  EXPECT_EQ(back.paths_enumerated, stats.paths_enumerated);
  EXPECT_EQ(back.merge_steps, stats.merge_steps);
  EXPECT_EQ(back.candidate_evaluations, stats.candidate_evaluations);
}

// The TSan target: many threads hammer the same named metrics through
// the registry (mixing registration races with hot-path updates) while
// another set of threads snapshots concurrently. Totals must be exact.
TEST(MetricsConcurrencyTest, ParallelUpdatesAndSnapshotsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 10'000;
  MetricsRegistry registry;
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 2);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      for (int i = 0; i < kIterations; ++i) {
        // Re-register by name every iteration: exercises the
        // idempotent-registration lock against concurrent lookups.
        registry.counter("shared.counter")->Add(1);
        registry.gauge("shared.gauge")->UpdateMax(t * kIterations + i);
        // Add +1/-1 pairs must cancel exactly whatever the interleaving
        // (the inflight-requests pattern).
        registry.gauge("shared.inflight")->Add(1);
        registry.histogram("shared.histogram")
            ->Record(static_cast<double>(i % 1'000), "req");
        registry.gauge("shared.inflight")->Add(-1);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < 100; ++i) {
        const MetricsSnapshot snapshot = registry.Snapshot();
        // Monotone, never torn beyond the running total.
        EXPECT_GE(snapshot.CounterValue("shared.counter"), 0);
        EXPECT_LE(snapshot.CounterValue("shared.counter"),
                  int64_t{kThreads} * kIterations);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("shared.counter"),
            int64_t{kThreads} * kIterations);
  EXPECT_EQ(snapshot.GaugeValue("shared.gauge"),
            int64_t{kThreads - 1} * kIterations + (kIterations - 1));
  const HistogramStats histogram = snapshot.histograms.at("shared.histogram");
  EXPECT_EQ(histogram.count, int64_t{kThreads} * kIterations);
  EXPECT_DOUBLE_EQ(histogram.min, 0.0);
  EXPECT_DOUBLE_EQ(histogram.max, 999.0);
  EXPECT_EQ(histogram.exemplar_id, "req");
  EXPECT_EQ(snapshot.GaugeValue("shared.inflight"), 0);
}

}  // namespace
}  // namespace cdpd
