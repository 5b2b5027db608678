#ifndef CDPD_COMMON_METRICS_H_
#define CDPD_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

namespace cdpd {

/// Compile-time kill switch: building with -DCDPD_DISABLE_METRICS
/// turns every instrumentation site guarded by `if constexpr
/// (kMetricsCompiledIn)` into dead code the compiler removes. The
/// default build keeps the sites, which cost one pointer test when no
/// registry is injected (the zero-overhead-when-disabled guarantee
/// bench_parallel_whatif asserts).
#if defined(CDPD_DISABLE_METRICS)
inline constexpr bool kMetricsCompiledIn = false;
#else
inline constexpr bool kMetricsCompiledIn = true;
#endif

/// A monotonically increasing atomic counter. Relaxed ordering: the
/// counters are statistics, not synchronization.
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A last-write-wins (or running-maximum) atomic gauge. A fresh gauge
/// is *unset* (reads as 0) rather than holding a real 0, so the first
/// UpdateMax records its value even when that value is negative — with
/// a zero initializer a negative peak could never be observed.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Adjusts the gauge by `delta` (an unset gauge counts as 0) — the
  /// increment/decrement pair an in-flight-requests gauge needs.
  void Add(int64_t delta) {
    int64_t current = value_.load(std::memory_order_relaxed);
    for (;;) {
      const int64_t base = current == kUnset ? 0 : current;
      if (value_.compare_exchange_weak(current, base + delta,
                                       std::memory_order_relaxed)) {
        return;
      }
    }
  }
  /// Raises the gauge to `v` if it is currently lower or unset (peak
  /// tracking over all recorded values, whatever their sign).
  void UpdateMax(int64_t v) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while ((current == kUnset || v > current) &&
           !value_.compare_exchange_weak(current, v,
                                         std::memory_order_relaxed)) {
    }
  }
  /// The recorded value, or 0 when nothing was ever recorded. (The
  /// unset sentinel is int64_t min, so Set(int64_t min) reads as 0 —
  /// an acceptable corner for statistics gauges.)
  int64_t Value() const {
    const int64_t v = value_.load(std::memory_order_relaxed);
    return v == kUnset ? 0 : v;
  }

 private:
  static constexpr int64_t kUnset = std::numeric_limits<int64_t>::min();
  std::atomic<int64_t> value_{kUnset};
};

/// Aggregated view of a histogram at snapshot time. Percentiles are
/// estimated from the log2 bucket boundaries (geometric midpoint), so
/// they are order-of-magnitude accurate — the right fidelity for
/// latency distributions; min/max/count/sum are exact.
struct HistogramStats {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Last exemplar recorded through Record(value, exemplar_id): a
  /// request id that can be looked up in the server's slow log /
  /// trace store. Empty when the histogram never saw an exemplar.
  std::string exemplar_id;
  double exemplar_value = 0.0;
};

/// A lock-striped histogram of non-negative values (typically
/// microseconds). Record() hashes the calling thread onto one of
/// kStripes independently-locked stripes, so concurrent recorders
/// rarely contend; Snapshot() merges the stripes.
class Histogram {
 public:
  void Record(double value);
  /// Records `value` and remembers `exemplar_id` (last-write-wins) as
  /// the sample's provenance — typically a request id, surfaced by the
  /// Prometheus exposition so one slow sample is traceable end-to-end.
  void Record(double value, std::string_view exemplar_id);
  HistogramStats Snapshot() const;

 private:
  static constexpr size_t kStripes = 16;
  /// log2 buckets: bucket 0 holds values <= 1, bucket i holds
  /// (2^{i-1}, 2^i]; the last bucket is unbounded.
  static constexpr size_t kBuckets = 64;
  struct Stripe {
    mutable std::mutex mu;
    std::array<int64_t, kBuckets> buckets{};
    int64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  Stripe& StripeForThisThread();

  std::array<Stripe, kStripes> stripes_;
  mutable std::mutex exemplar_mu_;
  std::string exemplar_id_;
  double exemplar_value_ = 0.0;
};

/// `name` rewritten into the Prometheus metric-name alphabet
/// ([a-zA-Z_:][a-zA-Z0-9_:]*): every other character (the registry's
/// '.' separators, '-', ...) becomes '_', and a leading digit is
/// prefixed with '_'. An empty name sanitizes to "_".
std::string PrometheusMetricName(std::string_view name);

/// One coherent reading of a registry: plain maps, detached from the
/// live metrics, safe to serialize or diff at leisure.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramStats> histograms;

  /// Counter value by name, 0 when absent.
  int64_t CounterValue(std::string_view name) const;
  /// Gauge value by name, 0 when absent.
  int64_t GaugeValue(std::string_view name) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string ToJson() const;
  /// Aligned human-readable listing, one metric per line.
  std::string ToText() const;
  /// Prometheus text exposition format (version 0.0.4): counters and
  /// gauges become scalar samples, histograms become summaries
  /// (quantile="0.5"/"0.95"/"0.99" plus _sum/_count and _min/_max
  /// gauges). Names are sanitized through PrometheusMetricName; a
  /// sanitized-name collision across metric kinds is disambiguated
  /// with a numeric suffix rather than emitting a duplicate series.
  /// A histogram's last exemplar rides along as a comment line
  /// (`# exemplar <name> request_id="..." value=...`) — scrapers
  /// ignore it, humans and the CI checker can follow the id into
  /// /trace.
  std::string ToPrometheus() const;
};

/// A process- or component-wide named-metric registry. Registration is
/// mutex-protected and idempotent (same name -> same metric); the
/// returned pointers are stable for the registry's lifetime, so hot
/// paths register once and then touch only the lock-free metric.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// The process-wide default registry (never destroyed).
  static MetricsRegistry* Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// A counter or histogram handle resolved from its registry on first
/// use, so the series appears exactly when a per-request lookup would
/// have created it; afterwards Get() is one atomic load. Thread-safe:
/// the registry hands out stable pointers, so racing first uses store
/// the same value.
template <typename Metric>
class LazyMetric {
  static_assert(std::is_same_v<Metric, Counter> ||
                std::is_same_v<Metric, Histogram>);

 public:
  /// The metric named `prefix` + `suffix` in `registry`.
  Metric* Get(MetricsRegistry* registry, std::string_view prefix,
              std::string_view suffix = {}) {
    Metric* metric = metric_.load(std::memory_order_acquire);
    if (metric != nullptr) return metric;
    std::string name(prefix);
    name += suffix;
    if constexpr (std::is_same_v<Metric, Histogram>) {
      metric = registry->histogram(name);
    } else {
      metric = registry->counter(name);
    }
    metric_.store(metric, std::memory_order_release);
    return metric;
  }

 private:
  std::atomic<Metric*> metric_{nullptr};
};

}  // namespace cdpd

#endif  // CDPD_COMMON_METRICS_H_
