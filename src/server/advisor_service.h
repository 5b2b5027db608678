#ifndef CDPD_SERVER_ADVISOR_SERVICE_H_
#define CDPD_SERVER_ADVISOR_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/configuration.h"
#include "common/budget.h"
#include "common/metrics.h"
#include "common/observability.h"
#include "common/result.h"
#include "core/solver.h"
#include "core/solver_session.h"
#include "cost/cost_model.h"
#include "cost/what_if.h"
#include "server/frame.h"
#include "server/slow_log.h"
#include "storage/schema.h"
#include "workload/workload.h"

namespace cdpd {

class Recorder;

/// The git commit this binary was built from. CI stamps it through the
/// CDPD_GIT_SHA environment variable (read once, at first call);
/// "unknown" otherwise. Reported by /varz and postmortem manifests.
const std::string& BuildGitSha();

/// The CMake build flavor ("Release", "Debug", ...; "unknown" when the
/// build did not stamp one).
std::string_view BuildTypeName();

/// Everything that parameterizes a resident advisor: the catalog (one
/// schema + cost-model state, fixed for the service's lifetime), the
/// pinned candidate space, the sliding workload window, and the
/// request defaults a client can override per call.
struct ServiceOptions {
  Schema schema = MakePaperSchema();
  /// Cost-model table size and value domain (the paper's instance is
  /// 2.5 M rows over a 500 k domain; the default is the CLI's demo
  /// scale).
  int64_t rows = 250'000;
  int64_t domain_size = 500'000;
  CostParams params;
  /// Candidate indexes the recommendations draw from; empty =
  /// MakePaperCandidateIndexes(schema). Pinned at construction so the
  /// candidate universe — and with it the cost cache's validity token —
  /// never changes across re-solves: that is what keeps the warm-start
  /// hit rate high over a sliding window.
  std::vector<IndexDef> candidate_indexes;
  int32_t max_indexes_per_config = 1;
  int64_t space_bound_pages = std::numeric_limits<int64_t>::max();
  /// Statements per advisor segment (DP stage).
  size_t block_size = 100;
  /// Sliding-window cap: INGEST keeps only the most recent this-many
  /// statements (0 = unbounded, the window only grows).
  size_t window_statements = 10'000;
  /// Request defaults; a RECOMMEND payload's own fields win.
  std::optional<int64_t> k = 2;
  OptimizerMethod method = OptimizerMethod::kOptimal;
  std::optional<std::chrono::milliseconds> default_deadline;
  std::optional<int64_t> default_memory_limit_bytes;
  /// Worker threads of the resident SolverSession's pool (0 =
  /// hardware default) and the byte cap of its persistent cost cache
  /// (0 = unbounded).
  int num_threads = 0;
  int64_t cost_cache_max_bytes = 0;
  /// Extra observability sinks layered *under* the service's own
  /// metrics registry (the registry always receives the solver and
  /// server metrics; these add tracing/logging/progress).
  Observability observability;
  /// Slowest-request entries GET /slowlog keeps (0 disables) and the
  /// recent-request ring GET /trace?id= resolves ids from.
  size_t slow_log_capacity = 32;
  size_t slow_log_recent = 256;
  /// When non-empty, the first failed request flushes a postmortem
  /// bundle under `<postmortem_dir>/failure` (once per process — the
  /// first failure is the interesting one; see WritePostmortemBundle).
  std::string postmortem_dir;

  Status Validate() const;
};

/// Per-request attribution the transport threads into Handle(): the
/// wire request id (empty when the client sent none and the server
/// generated one) and an optional request-scoped tracer the service
/// opens its parse/solve spans on — the solver's own spans land on the
/// same tracer through SolveOptions::observability.
struct RequestContext {
  std::string_view request_id;
  Tracer* tracer = nullptr;
};

/// INGEST outcome: how many statements the batch added and what the
/// window looks like now.
struct IngestAck {
  size_t accepted = 0;          // Statements parsed from this batch.
  size_t window_statements = 0; // Window size after the slide.
  size_t dropped = 0;           // Statements the cap pushed out.
  uint64_t epoch = 0;           // Window version (bumps every ingest).
  std::string ToJson() const;
};

/// WHATIF outcome: the hypothetical configuration's estimated workload
/// cost over the current window.
struct WhatIfAnswer {
  Configuration config;
  double exec_cost = 0.0;       // Σ_i EXEC(S_i, config).
  double base_exec_cost = 0.0;  // Σ_i EXEC(S_i, current initial).
  double build_cost = 0.0;      // TRANS(current initial, config).
  size_t segments = 0;
  std::string ToJson(const Schema& schema) const;
};

/// Per-request knobs of a RECOMMEND, parsed from its key=value payload
/// (see ParseRecommendRequest). Unset fields fall back to the
/// ServiceOptions defaults; deadline/memory map onto the solver's QoS
/// plumbing (SolveOptions::deadline / memory_limit_bytes).
struct RecommendRequest {
  std::optional<int64_t> k;
  std::optional<OptimizerMethod> method;
  std::optional<std::chrono::milliseconds> deadline;
  std::optional<int64_t> memory_limit_bytes;
  bool prune = false;
  int segment_chunks = 0;
  /// Adopt the recommended final configuration as the service's
  /// initial design for subsequent requests — the "the advisor lives
  /// alongside the workload" loop where each window's solution becomes
  /// the next window's C0.
  bool apply = false;
};

/// Strict parse of a RECOMMEND payload: newline-separated key=value
/// pairs (k, method, deadline_ms, memory_limit_bytes, prune, chunks,
/// apply), '#' comments, blank lines ignored. Unknown keys and
/// malformed integers are InvalidArgument — a typo must not silently
/// fall back to defaults.
Result<RecommendRequest> ParseRecommendRequest(std::string_view text);

/// RECOMMEND outcome: the schedule (compressed to its change points),
/// the change count, and the solve's stats.
struct RecommendAnswer {
  DesignSchedule schedule;
  std::vector<Segment> segments;
  int64_t changes = 0;
  std::optional<int64_t> k;
  OptimizerMethod method = OptimizerMethod::kOptimal;
  SolveStats stats;
  std::string method_detail;
  /// True when the identical-window short-circuit served the resident
  /// solution instead of re-solving (bit-identical by determinism —
  /// only taken for deadline-free requests).
  bool reused_resident = false;
  uint64_t epoch = 0;
  std::string ToJson(const Schema& schema) const {
    return ToJson(schema, reused_resident);
  }
  /// The same document with `reused` in place of reused_resident, so a
  /// caller holding the shared resident answer encodes it uncopied.
  std::string ToJson(const Schema& schema, bool reused) const;
};

/// The resident advisor behind advisor_server: keeps the catalog, a
/// warm SolverSession (persistent cost cache + thread pool + metrics),
/// the sliding workload window, and the last solution resident across
/// requests.
///
/// Warm-start semantics (see docs/serving.md): the candidate universe
/// and cost model are pinned at construction, so the persistent cost
/// cache's validity token never changes and every statement shape the
/// window has seen before is answered from cache — a re-solve over a
/// slid window re-costs only the shapes that are genuinely new. The
/// last solution is kept resident: a RECOMMEND over an unchanged
/// window with unchanged options returns it without re-solving. Both
/// reuses are *observationally invariant*: every answer is bit-
/// identical to a cold one-shot Solve() over the same window (the
/// solvers are deterministic and the cache never changes values — the
/// property tests pin this).
///
/// Thread-safe: INGEST swaps an immutable window snapshot under a
/// mutex; WHATIF/RECOMMEND read whichever snapshot was current when
/// they started (the what-if engine is immutable and the solver session
/// is internally synchronized), so concurrent clients never block each
/// other on a long solve.
class AdvisorService {
 public:
  /// `options` must Validate().
  explicit AdvisorService(ServiceOptions options);

  const Schema& schema() const { return options_.schema; }
  const ServiceOptions& options() const { return options_; }
  /// The service-owned registry: solver metrics, cost-cache gauges,
  /// and the server layer's request counters/latency histograms all
  /// land here; STATS serializes it.
  MetricsRegistry* registry() { return &registry_; }
  SolverSession* session() { return &session_; }
  /// The bounded record of the slowest (and most recent) requests the
  /// transport served; GET /slowlog and /trace?id= read it.
  SlowLog* slow_log() { return &slow_log_; }
  /// The flight recorder the transport journals served requests into,
  /// or null when not recording. The service does not own it; the
  /// owner (advisor_server's main, a test) sets it after construction
  /// and must outlive the traffic. Atomic so /varz and the transport
  /// can read it without a lock.
  Recorder* recorder() const {
    return recorder_.load(std::memory_order_acquire);
  }
  void set_recorder(Recorder* recorder) {
    recorder_.store(recorder, std::memory_order_release);
  }
  /// Seconds since this service was constructed (steady clock).
  double UptimeSeconds() const;
  /// Readiness for traffic: the catalog is pinned at construction, so
  /// the service is ready once the first INGEST left a non-empty
  /// window to solve over (GET /readyz).
  bool ready() const { return window_size() > 0; }
  /// Trips the service-wide cancel token: every in-flight solve winds
  /// down through the anytime machinery. Called by the server on
  /// SHUTDOWN; irreversible.
  void CancelAll() { cancel_.Cancel(); }

  /// Current window size / version (snapshot reads).
  size_t window_size() const;
  uint64_t epoch() const;
  /// The design subsequent solves start from (C0; updated by a
  /// RECOMMEND with apply=1).
  Configuration initial_config() const;

  // Typed entry points (tests and in-process callers). `tracer`
  // (optional) receives the solve's spans — the per-request tracer the
  // transport passes through RequestContext.
  Result<IngestAck> IngestSql(std::string_view sql);
  Result<WhatIfAnswer> WhatIfConfig(const Configuration& config);
  Result<RecommendAnswer> RecommendNow(const RecommendRequest& request,
                                       Tracer* tracer = nullptr);

  /// Wire entry point: dispatches a request frame's opcode to the
  /// typed methods and serializes the answer as JSON, opening
  /// "request.parse" / "request.solve" spans on ctx.tracer. kShutdown
  /// is the server's job (transport lifecycle), not the service's — it
  /// is rejected here.
  Result<std::string> Handle(uint8_t opcode, std::string_view payload,
                             const RequestContext& ctx);
  Result<std::string> Handle(uint8_t opcode, std::string_view payload) {
    return Handle(opcode, payload, RequestContext{});
  }

  /// One coherent registry reading, refreshed with the cache, window,
  /// and process gauges — what /varz serializes as JSON and /metrics
  /// renders as Prometheus text.
  MetricsSnapshot StatsSnapshot();

  /// Metrics snapshot JSON ({"counters":...,"gauges":...,
  /// "histograms":...}), refreshed with the cache and process gauges.
  std::string StatsJson();

  /// The /varz document: build identity (git_sha, build_type), uptime,
  /// the recorder's status, and then the full StatsJson content
  /// (counters/gauges/histograms) at the top level — a strict superset
  /// of StatsJson, so existing consumers keep working.
  std::string VarzJson();

  /// Flushes a failure postmortem bundle to
  /// `<options().postmortem_dir>/failure` — at most once per process,
  /// and only when postmortem_dir is configured. The transport calls
  /// this when a request fails; later failures are no-ops so a
  /// misbehaving client cannot grind the server with bundle IO.
  void MaybeWriteFailurePostmortem(const std::string& reason);

  /// Parses a WHATIF payload: ';'-separated indexes, each a
  /// comma-separated column list ("a" / "a,b;c" / "{}" or empty for
  /// the empty configuration).
  Result<Configuration> ParseConfigSpec(std::string_view spec) const;

 private:
  /// One immutable window version: statements, their segmentation, and
  /// the what-if engine over them. Swapped wholesale by
  /// INGEST; readers hold the shared_ptr for as long as they need it.
  struct WindowState {
    std::vector<BoundStatement> statements;
    std::vector<Segment> segments;
    std::unique_ptr<WhatIfEngine> engine;
    uint64_t epoch = 0;
  };

  /// The resident last solution and the request shape it answers.
  struct ResidentSolution {
    uint64_t epoch = 0;
    std::string options_key;
    std::shared_ptr<const RecommendAnswer> answer;
  };

  std::shared_ptr<const WindowState> CurrentWindow() const;

  /// The RECOMMEND behind RecommendNow and Handle: the resident answer
  /// itself, shared rather than copied, with *reused telling whether
  /// the identical-window short-circuit served it. Its own
  /// reused_resident field is always false.
  Result<std::shared_ptr<const RecommendAnswer>> Recommend(
      const RecommendRequest& request, Tracer* tracer, bool* reused);

  ServiceOptions options_;
  CostModel model_;
  std::vector<IndexDef> candidate_indexes_;
  std::vector<Configuration> candidate_configs_;
  MetricsRegistry registry_;
  // Hot-path counters, resolved on first use.
  LazyMetric<Counter> whatifs_metric_;
  LazyMetric<Counter> recommends_metric_;
  LazyMetric<Counter> recommends_reused_metric_;
  SolverSession session_;
  CancelToken cancel_;
  SlowLog slow_log_;
  std::atomic<Recorder*> recorder_{nullptr};
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
  std::atomic<bool> failure_postmortem_written_{false};

  mutable std::mutex mu_;
  std::shared_ptr<const WindowState> window_;
  Configuration initial_;
  ResidentSolution resident_;
};

}  // namespace cdpd

#endif  // CDPD_SERVER_ADVISOR_SERVICE_H_
