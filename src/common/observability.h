#ifndef CDPD_COMMON_OBSERVABILITY_H_
#define CDPD_COMMON_OBSERVABILITY_H_

#include "common/log.h"
#include "common/metrics.h"
#include "common/progress.h"
#include "common/tracing.h"

namespace cdpd {

/// The four observability injection points every solve accepts, folded
/// into one value so they travel together: a metrics registry, a
/// Chrome-trace tracer, a structured JSONL logger, and a progress
/// callback. All optional, all borrowed (they must outlive the call
/// they are passed to), all observational only — results are
/// byte-identical with or without any of them, for any thread count.
///
/// SolveOptions, AdvisorOptions and ServiceOptions embed one of these.
/// A default Observability{} disables everything at the cost of one
/// pointer test per instrumentation site.
struct Observability {
  /// Receives the "solver.*" counters (via SolveStats::PublishTo), the
  /// what-if engine's "whatif.*" metrics, and the worker pool's
  /// "threadpool.*" metrics.
  MetricsRegistry* metrics = nullptr;
  /// Records a top-level solve span plus per-stage solver spans.
  Tracer* tracer = nullptr;
  /// Receives phase start/end events, candidate-set sizes, anytime
  /// fallback warnings, and deadline hits from every method. Null =
  /// disabled; each site then costs one pointer test (and the
  /// CDPD_DISABLE_LOGGING build removes the sites outright).
  Logger* logger = nullptr;
  /// Invoked at the solvers' budget poll sites (precompute shards, DP
  /// stages, merging rounds, ranked paths). MUST be thread-safe —
  /// precompute shards report from worker threads. Empty = disabled.
  ProgressFn progress;
};

}  // namespace cdpd

#endif  // CDPD_COMMON_OBSERVABILITY_H_
