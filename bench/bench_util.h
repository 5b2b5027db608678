#ifndef CDPD_BENCH_BENCH_UTIL_H_
#define CDPD_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json_util.h"
#include "common/metrics.h"
#include "common/resource_tracker.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "core/advisor.h"
#include "cost/cost_model.h"
#include "engine/database.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace bench_util {

/// The paper's experimental constants (§6.1).
inline constexpr int64_t kPaperRows = 2'500'000;
inline constexpr int64_t kPaperDomain = 500'000;
inline constexpr uint64_t kSeed = 20080407;  // ICDE 2008 week.

/// Rows for benches that physically execute workloads. The paper's
/// 2.5 M-row table works but makes full scans slow on small machines;
/// 250 k (default) preserves every cost ordering (plans are linear in
/// pages). Override with CDPD_ROWS.
inline int64_t ExecutionRows() {
  if (const char* env = std::getenv("CDPD_ROWS")) {
    const int64_t rows = std::atoll(env);
    if (rows > 0) return rows;
  }
  return 250'000;
}

/// Cost model over the paper's full-size table (used by the advisors;
/// no physical table needed).
inline std::unique_ptr<CostModel> MakePaperCostModel() {
  return std::make_unique<CostModel>(MakePaperSchema(), kPaperRows,
                                     kPaperDomain);
}

/// W1/W2/W3 at the paper's full scale (15000 statements, 500-query
/// blocks), deterministically seeded.
inline Workload MakeFullWorkload(const std::string& name, uint64_t seed) {
  WorkloadGenerator gen(MakePaperSchema(), kPaperDomain, seed);
  return MakePaperWorkload(name, &gen).value();
}

/// Process-wide observability sinks shared by every solve a bench
/// runs. Only attached when the corresponding environment variable
/// (CDPD_METRICS_OUT / CDPD_TRACE_OUT) names an output file, so the
/// default bench run stays uninstrumented.
inline MetricsRegistry& BenchMetricsRegistry() {
  static MetricsRegistry registry;
  return registry;
}

inline Tracer& BenchTracer() {
  static Tracer tracer;
  return tracer;
}

/// Points `options` at the bench-wide registry/tracer when
/// CDPD_METRICS_OUT / CDPD_TRACE_OUT are set.
inline void AttachObservability(SolveOptions* options) {
  if (std::getenv("CDPD_METRICS_OUT") != nullptr) {
    options->observability.metrics = &BenchMetricsRegistry();
  }
  if (std::getenv("CDPD_TRACE_OUT") != nullptr) {
    options->observability.tracer = &BenchTracer();
  }
}

/// Writes the artifacts named by CDPD_METRICS_OUT / CDPD_TRACE_OUT
/// (same formats as advisor_cli --metrics-out / --trace-out). Call at
/// the end of a bench's main; a no-op when the variables are unset.
inline void WriteObservabilityArtifacts() {
  auto write = [](const char* path, const std::string& content,
                  const char* what) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s to %s\n", what, path);
      return;
    }
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    std::printf("%s written to %s\n", what, path);
  };
  if (const char* path = std::getenv("CDPD_METRICS_OUT")) {
    write(path, BenchMetricsRegistry().Snapshot().ToJson(),
          "metrics snapshot");
  }
  if (const char* path = std::getenv("CDPD_TRACE_OUT")) {
    write(path, BenchTracer().ToChromeJson(), "trace");
  }
}

/// Continuous benchmark telemetry: every bench main builds one
/// BenchReport, records a case per measured experiment point, and
/// writes `BENCH_<bench>.json` on exit. The artifact is the unit the
/// perf trajectory is built from — tools/bench_compare diffs two sets
/// of them, and CI uploads every run's set next to the committed
/// baseline in bench/baselines/.
///
/// Schema (version 3 — v2 plus the throughput columns; readers accept
/// all three):
///   {
///     "schema_version": 3,
///     "kind": "cdpd.bench",
///     "bench": "<name>",
///     "git_sha": "<$CDPD_GIT_SHA or 'unknown'>",
///     "threads": <default worker-thread count>,
///     "rows": <ExecutionRows()>,
///     "unix_time": <seconds since epoch>,
///     "rss_peak_bytes": <process lifetime peak RSS at write time>,
///     "cases": [
///       {"name": "...", "wall_seconds": 1.25, "cpu_seconds": 4.8,
///        "peak_bytes": 1048576,
///        "relaxations_per_sec": 2.1e8,      // solver cases only
///        "statements_per_sec": 3.4e5,       // scaling cases only
///        "requests_per_sec": 1.2e4,         // serving cases only
///        "metrics": {"costings": 831, ...}},
///       ...
///     ]
///   }
///
/// Case metrics are optional flat numeric key/value pairs — pass a
/// SolveStats to embed the solver counters (which also fills the
/// case's cpu_seconds/peak_bytes columns from the solve's process-CPU
/// delta and tracked allocation peak, plus the v3 columns:
/// relaxations_per_sec = stats.relaxations / wall, emitted when the
/// solve relaxed anything), or hand-picked values for substrate
/// benches. tools/bench_compare diffs wall time on every case,
/// peak_bytes on cases that report one, and (v3) gates throughput
/// drops on relaxations_per_sec, statements_per_sec and
/// requests_per_sec. The artifact lands in $CDPD_BENCH_OUT_DIR (else
/// the working directory).
class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  /// Records one measured case with optional flat numeric metrics.
  /// `cpu_seconds`/`peak_bytes` fill the schema-v2 telemetry columns;
  /// leave 0 when the case has nothing to report.
  void AddCase(std::string name, double wall_seconds,
               std::vector<std::pair<std::string, double>> metrics = {},
               double cpu_seconds = 0.0, int64_t peak_bytes = 0) {
    cases_.push_back(Case{std::move(name), wall_seconds, std::move(metrics),
                          /*stats_json=*/"", cpu_seconds, peak_bytes});
  }

  /// Records one measured serving case: `requests` completed requests
  /// driven open-loop for `wall_seconds`. Emits the v3
  /// requests_per_sec column, which tools/bench_compare gates on
  /// (drops are regressions). Latency percentiles and any other flat
  /// numbers ride along in `metrics`.
  void AddServingCase(std::string name, double wall_seconds,
                      int64_t requests,
                      std::vector<std::pair<std::string, double>> metrics = {},
                      double cpu_seconds = 0.0, int64_t peak_bytes = 0) {
    Case c{std::move(name), wall_seconds, std::move(metrics),
           /*stats_json=*/"", cpu_seconds, peak_bytes};
    if (requests > 0 && wall_seconds > 0.0) {
      c.requests_per_sec = static_cast<double>(requests) / wall_seconds;
    }
    cases_.push_back(std::move(c));
  }

  /// Records one measured solve, embedding the full SolveStats
  /// counters (core/solve_stats.h ToJson) as the case metrics. The
  /// v2 telemetry columns come from the solve itself: process-CPU
  /// delta and the ResourceTracker's concurrent high-water mark. The
  /// v3 DP-throughput column is derived from relaxations / wall
  /// (absent when the solve relaxed nothing).
  /// `num_statements` (optional) is the workload length the solve
  /// covered; when given with a positive wall time the case also
  /// reports statements_per_sec — the end-to-end scaling throughput
  /// the bench_scale_* family gates on.
  void AddCase(std::string name, double wall_seconds,
               const SolveStats& stats, int64_t num_statements = 0) {
    Case c{std::move(name), wall_seconds, {}, stats.ToJson(),
           stats.cpu_seconds, stats.peak_bytes_total};
    if (stats.relaxations > 0 && wall_seconds > 0.0) {
      c.relaxations_per_sec =
          static_cast<double>(stats.relaxations) / wall_seconds;
    }
    if (num_statements > 0 && wall_seconds > 0.0) {
      c.statements_per_sec =
          static_cast<double>(num_statements) / wall_seconds;
    }
    cases_.push_back(std::move(c));
  }

  std::string ToJson() const {
    std::string out = "{\"schema_version\":3,\"kind\":\"cdpd.bench\"";
    out += ",\"bench\":" + JsonString(bench_);
    const char* sha = std::getenv("CDPD_GIT_SHA");
    out += ",\"git_sha\":" +
           JsonString(sha != nullptr && sha[0] != '\0' ? sha : "unknown");
    out += ",\"threads\":" +
           std::to_string(ThreadPool::DefaultThreadCount());
    out += ",\"rows\":" + std::to_string(ExecutionRows());
    out += ",\"unix_time\":" +
           std::to_string(static_cast<int64_t>(std::time(nullptr)));
    out += ",\"rss_peak_bytes\":" + std::to_string(PeakRssBytes());
    out += ",\"cases\":[";
    for (size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      if (i > 0) out += ',';
      out += "{\"name\":" + JsonString(c.name);
      out += ",\"wall_seconds\":" + JsonDouble(c.wall_seconds);
      out += ",\"cpu_seconds\":" + JsonDouble(c.cpu_seconds);
      out += ",\"peak_bytes\":" + std::to_string(c.peak_bytes);
      if (c.relaxations_per_sec > 0.0) {
        out += ",\"relaxations_per_sec\":" + JsonDouble(c.relaxations_per_sec);
      }
      if (c.statements_per_sec > 0.0) {
        out += ",\"statements_per_sec\":" + JsonDouble(c.statements_per_sec);
      }
      if (c.requests_per_sec > 0.0) {
        out += ",\"requests_per_sec\":" + JsonDouble(c.requests_per_sec);
      }
      if (!c.stats_json.empty()) {
        out += ",\"metrics\":" + c.stats_json;
      } else {
        out += ",\"metrics\":{";
        for (size_t m = 0; m < c.metrics.size(); ++m) {
          if (m > 0) out += ',';
          out += JsonString(c.metrics[m].first) + ":" +
                 JsonDouble(c.metrics[m].second);
        }
        out += '}';
      }
      out += '}';
    }
    out += "]}\n";
    return out;
  }

  /// Writes BENCH_<bench>.json into $CDPD_BENCH_OUT_DIR (else cwd).
  /// Returns false (after a diagnostic) when the file cannot be
  /// written; benches report but do not fail on that.
  bool Write() const {
    std::string path;
    if (const char* dir = std::getenv("CDPD_BENCH_OUT_DIR")) {
      if (dir[0] != '\0') {
        path = dir;
        if (path.back() != '/') path += '/';
      }
    }
    path += "BENCH_" + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write bench report to %s\n", path.c_str());
      return false;
    }
    const std::string json = ToJson();
    const size_t written = std::fwrite(json.data(), 1, json.size(), f);
    const bool ok = std::fclose(f) == 0 && written == json.size();
    if (ok) {
      std::printf("bench report (%zu cases) written to %s\n", cases_.size(),
                  path.c_str());
    } else {
      std::fprintf(stderr, "short write of bench report %s\n", path.c_str());
    }
    return ok;
  }

 private:
  struct Case {
    std::string name;
    double wall_seconds = 0.0;
    std::vector<std::pair<std::string, double>> metrics;
    /// Pre-rendered SolveStats JSON (takes precedence over `metrics`).
    std::string stats_json;
    /// Schema-v2 telemetry columns; 0 = not reported.
    double cpu_seconds = 0.0;
    int64_t peak_bytes = 0;
    /// Schema-v3 columns; <= 0 = not reported (omitted).
    double relaxations_per_sec = 0.0;
    double statements_per_sec = 0.0;
    double requests_per_sec = 0.0;
  };

  std::string bench_;
  std::vector<Case> cases_;
};

/// The advisor options of §6: 7-configuration space over the six
/// candidate indexes, initial and final design empty. std::nullopt is
/// the unconstrained problem.
inline AdvisorOptions PaperAdvisorOptions(std::optional<int64_t> k) {
  AdvisorOptions options;
  options.block_size = kPaperBlockSize;
  options.solve.k = k;
  options.candidate_indexes = MakePaperCandidateIndexes(MakePaperSchema());
  options.max_indexes_per_config = 1;
  options.final_config = Configuration::Empty();
  AttachObservability(&options.solve);
  return options;
}

/// Simple aligned table printing for the reproduction reports.
inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void PrintHeader(const std::string& title) {
  PrintRule();
  std::printf("%s\n", title.c_str());
  PrintRule();
}

}  // namespace bench_util
}  // namespace cdpd

#endif  // CDPD_BENCH_BENCH_UTIL_H_
