#include "server/advisor_service.h"

#include <cstdlib>
#include <limits>
#include <span>
#include <utility>

#include "advisor/config_enumeration.h"
#include "common/json_util.h"
#include "common/resource_tracker.h"
#include "common/string_util.h"
#include "core/design_problem.h"
#include "core/validator.h"
#include "index/index_def.h"
#include "server/recorder.h"
#include "workload/trace_io.h"

namespace cdpd {

const std::string& BuildGitSha() {
  static const std::string sha = [] {
    const char* env = std::getenv("CDPD_GIT_SHA");
    return std::string(env != nullptr && *env != '\0' ? env : "unknown");
  }();
  return sha;
}

std::string_view BuildTypeName() {
#if defined(CDPD_BUILD_TYPE)
  if (std::string_view(CDPD_BUILD_TYPE).empty()) return "unknown";
  return CDPD_BUILD_TYPE;
#else
  return "unknown";
#endif
}

namespace {

/// Strict base-10 int64 parse: the whole (trimmed) field must be a
/// number — "12x", "", and overflow are errors, unlike std::atoll's
/// silent 0.
bool ParseInt64Strict(std::string_view text, int64_t* out) {
  const std::string field(Trim(text));
  if (field.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(field.c_str(), &end, 10);
  if (errno != 0 || end != field.c_str() + field.size()) return false;
  *out = static_cast<int64_t>(value);
  return true;
}

bool ParseBoolStrict(std::string_view text, bool* out) {
  const std::string_view field = Trim(text);
  if (field == "1" || EqualsIgnoreCase(field, "true")) {
    *out = true;
    return true;
  }
  if (field == "0" || EqualsIgnoreCase(field, "false")) {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

Status ServiceOptions::Validate() const {
  if (rows <= 0) return Status::InvalidArgument("rows must be positive");
  if (domain_size <= 0) {
    return Status::InvalidArgument("domain_size must be positive");
  }
  if (block_size == 0) {
    return Status::InvalidArgument("block_size must be positive");
  }
  if (max_indexes_per_config < 1) {
    return Status::InvalidArgument("max_indexes_per_config must be >= 1");
  }
  if (space_bound_pages <= 0) {
    return Status::InvalidArgument("space_bound_pages must be positive");
  }
  if (k.has_value() && *k < 0) {
    return Status::InvalidArgument("default k must be >= 0 when set");
  }
  if (num_threads < 0 || num_threads > ThreadPool::kMaxThreads) {
    return Status::InvalidArgument(
        "num_threads must be in [0, " +
        std::to_string(ThreadPool::kMaxThreads) + "]");
  }
  if (default_deadline.has_value() && default_deadline->count() < 0) {
    return Status::InvalidArgument("default_deadline must be >= 0 when set");
  }
  if (default_memory_limit_bytes.has_value() &&
      *default_memory_limit_bytes <= 0) {
    return Status::InvalidArgument(
        "default_memory_limit_bytes must be > 0 when set");
  }
  return Status::OK();
}

std::string IngestAck::ToJson() const {
  std::string out = "{\"accepted\":" + std::to_string(accepted) +
                    ",\"window_statements\":" +
                    std::to_string(window_statements) +
                    ",\"dropped\":" + std::to_string(dropped) +
                    ",\"epoch\":" + std::to_string(epoch) + "}";
  return out;
}

std::string WhatIfAnswer::ToJson(const Schema& schema) const {
  std::string out = "{\"config\":" + JsonString(config.ToString(schema)) +
                    ",\"exec_cost\":" + JsonDouble(exec_cost) +
                    ",\"base_exec_cost\":" + JsonDouble(base_exec_cost) +
                    ",\"build_cost\":" + JsonDouble(build_cost) +
                    ",\"segments\":" + std::to_string(segments) + "}";
  return out;
}

Result<RecommendRequest> ParseRecommendRequest(std::string_view text) {
  RecommendRequest request;
  for (const std::string& raw_line : Split(text, '\n')) {
    const std::string_view line = Trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("malformed request line '" +
                                     std::string(line) +
                                     "' (expected key=value)");
    }
    const std::string_view key = Trim(line.substr(0, eq));
    const std::string_view value = line.substr(eq + 1);
    if (key == "k") {
      int64_t k = 0;
      if (!ParseInt64Strict(value, &k)) {
        return Status::InvalidArgument("malformed k '" + std::string(value) +
                                       "'");
      }
      request.k = k;  // k < 0 selects the unconstrained solve.
    } else if (key == "method") {
      CDPD_ASSIGN_OR_RETURN(request.method,
                            OptimizerMethodFromString(Trim(value)));
    } else if (key == "deadline_ms") {
      int64_t ms = 0;
      if (!ParseInt64Strict(value, &ms) || ms < 0) {
        return Status::InvalidArgument("malformed deadline_ms '" +
                                       std::string(value) + "'");
      }
      request.deadline = std::chrono::milliseconds(ms);
    } else if (key == "memory_limit_bytes") {
      int64_t bytes = 0;
      if (!ParseInt64Strict(value, &bytes) || bytes <= 0) {
        return Status::InvalidArgument("malformed memory_limit_bytes '" +
                                       std::string(value) + "'");
      }
      request.memory_limit_bytes = bytes;
    } else if (key == "prune") {
      if (!ParseBoolStrict(value, &request.prune)) {
        return Status::InvalidArgument("malformed prune '" +
                                       std::string(value) + "'");
      }
    } else if (key == "chunks") {
      int64_t chunks = 0;
      if (!ParseInt64Strict(value, &chunks) || chunks < 0 ||
          chunks > std::numeric_limits<int>::max()) {
        return Status::InvalidArgument("malformed chunks '" +
                                       std::string(value) + "'");
      }
      request.segment_chunks = static_cast<int>(chunks);
    } else if (key == "apply") {
      if (!ParseBoolStrict(value, &request.apply)) {
        return Status::InvalidArgument("malformed apply '" +
                                       std::string(value) + "'");
      }
    } else {
      return Status::InvalidArgument("unknown request key '" +
                                     std::string(key) + "'");
    }
  }
  return request;
}

std::string RecommendAnswer::ToJson(const Schema& schema, bool reused) const {
  std::string out = "{";
  out += "\"epoch\":" + std::to_string(epoch);
  out += ",\"reused_resident\":";
  out += reused ? "true" : "false";
  out += ",\"segments\":" + std::to_string(segments.size());
  out += ",\"changes\":" + std::to_string(changes);
  out += ",\"k\":";
  out += k.has_value() ? std::to_string(*k) : std::string("null");
  out += ",\"method\":" +
         JsonString(std::string(OptimizerMethodToString(method)));
  out += ",\"method_detail\":" + JsonString(method_detail);
  out += ",\"total_cost\":" + JsonDouble(schedule.total_cost);
  out += ",\"wall_seconds\":" + JsonDouble(stats.wall_seconds);
  out += ",\"deadline_hit\":";
  out += stats.deadline_hit ? "true" : "false";
  out += ",\"memory_limit_hit\":";
  out += stats.memory_limit_hit ? "true" : "false";
  // The schedule compressed to its change points: which configuration
  // takes effect before which statement.
  out += ",\"schedule\":[";
  const Configuration* previous = nullptr;
  bool first = true;
  for (size_t s = 0; s < segments.size(); ++s) {
    const Configuration& config = schedule.configs[s];
    if (previous == nullptr || !(config == *previous)) {
      if (!first) out += ",";
      first = false;
      out += "{\"from_statement\":" + std::to_string(segments[s].begin + 1) +
             ",\"config\":" + JsonString(config.ToString(schema)) + "}";
    }
    previous = &config;
  }
  out += "]";
  out += ",\"stats\":" + stats.ToJson();
  out += "}";
  return out;
}

AdvisorService::AdvisorService(ServiceOptions options)
    : options_(std::move(options)),
      model_(options_.schema, options_.rows, options_.domain_size,
             options_.params),
      slow_log_(options_.slow_log_capacity, options_.slow_log_recent) {
  const int threads = options_.num_threads > 0
                          ? options_.num_threads
                          : ThreadPool::DefaultThreadCount();
  if (threads > 1) {
    pool_ = std::make_unique<ThreadPool>(threads);
    pool_->EnableMetrics(&registry_);
    if (options_.observability.logger != nullptr) {
      pool_->EnableLogging(options_.observability.logger);
    }
  }
  candidate_indexes_ = options_.candidate_indexes;
  if (candidate_indexes_.empty()) {
    candidate_indexes_ = MakePaperCandidateIndexes(options_.schema);
  }
  ConfigEnumOptions enum_options;
  enum_options.max_indexes_per_config = options_.max_indexes_per_config;
  enum_options.space_bound_pages = options_.space_bound_pages;
  enum_options.num_rows = model_.num_rows();
  auto configs = EnumerateConfigurations(candidate_indexes_, enum_options);
  // Enumeration only fails on a degenerate space bound; the service
  // then still serves (the empty configuration is always feasible).
  candidate_configs_ = configs.ok()
                           ? std::move(configs).value()
                           : std::vector<Configuration>{Configuration()};

  auto window = std::make_shared<WindowState>();
  window->engine = std::make_unique<WhatIfEngine>(
      &model_, std::span<const BoundStatement>(window->statements),
      window->segments);
  window_ = std::move(window);
}

std::shared_ptr<const AdvisorService::WindowState>
AdvisorService::CurrentWindow() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_;
}

size_t AdvisorService::window_size() const {
  return CurrentWindow()->statements.size();
}

uint64_t AdvisorService::epoch() const { return CurrentWindow()->epoch; }

Configuration AdvisorService::initial_config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return initial_;
}

Result<IngestAck> AdvisorService::IngestSql(std::string_view sql) {
  CDPD_ASSIGN_OR_RETURN(Workload batch, ReadTrace(options_.schema, sql));
  const size_t accepted = batch.size();
  // The replaced window, freed after mu_ is released (declared before
  // the guard, so destroyed after it) but still before the ack: freeing
  // a 10^6-statement window takes milliseconds no WHATIF should wait.
  std::shared_ptr<const WindowState> replaced;
  std::lock_guard<std::mutex> lock(mu_);
  if (accepted == 0) {
    // A comment-only batch changes nothing; keep the window (and the
    // resident solution) valid.
    IngestAck ack;
    ack.window_statements = window_->statements.size();
    ack.epoch = window_->epoch;
    return ack;
  }
  auto next = std::make_shared<WindowState>();
  next->statements.reserve(window_->statements.size() + accepted);
  next->statements = window_->statements;
  for (BoundStatement& statement : batch.statements) {
    next->statements.push_back(std::move(statement));
  }
  size_t dropped = 0;
  if (options_.window_statements > 0 &&
      next->statements.size() > options_.window_statements) {
    dropped = next->statements.size() - options_.window_statements;
    next->statements.erase(next->statements.begin(),
                           next->statements.begin() +
                               static_cast<ptrdiff_t>(dropped));
  }
  next->segments =
      SegmentFixed(next->statements.size(), options_.block_size);
  next->engine = std::make_unique<WhatIfEngine>(
      &model_, std::span<const BoundStatement>(next->statements),
      next->segments);
  next->epoch = window_->epoch + 1;
  replaced = std::exchange(window_, std::move(next));

  registry_.counter("server.ingested_statements")
      ->Add(static_cast<int64_t>(accepted));
  registry_.gauge("server.window_statements")
      ->Set(static_cast<int64_t>(window_->statements.size()));
  registry_.gauge("server.window_epoch")
      ->Set(static_cast<int64_t>(window_->epoch));

  IngestAck ack;
  ack.accepted = accepted;
  ack.window_statements = window_->statements.size();
  ack.dropped = dropped;
  ack.epoch = window_->epoch;
  return ack;
}

Result<Configuration> AdvisorService::ParseConfigSpec(
    std::string_view spec) const {
  const std::string_view trimmed = Trim(spec);
  if (trimmed.empty() || trimmed == "{}") return Configuration();
  std::vector<IndexDef> indexes;
  for (const std::string& group : Split(trimmed, ';')) {
    if (Trim(group).empty()) continue;
    std::vector<std::string> names;
    for (const std::string& name : Split(group, ',')) {
      const std::string_view field = Trim(name);
      if (field.empty()) {
        return Status::InvalidArgument("empty column name in config spec '" +
                                       std::string(spec) + "'");
      }
      names.emplace_back(field);
    }
    CDPD_ASSIGN_OR_RETURN(IndexDef def,
                          IndexDef::FromColumnNames(options_.schema, names));
    indexes.push_back(std::move(def));
  }
  return Configuration(std::move(indexes));
}

Result<WhatIfAnswer> AdvisorService::WhatIfConfig(const Configuration& config) {
  if (config.SizePages(model_.num_rows()) > options_.space_bound_pages) {
    return Status::InvalidArgument(
        "configuration exceeds the space bound of " +
        std::to_string(options_.space_bound_pages) + " pages");
  }
  const std::shared_ptr<const WindowState> window = CurrentWindow();
  const Configuration initial = initial_config();
  WhatIfAnswer answer;
  answer.config = config;
  answer.segments = window->segments.size();
  const WhatIfEngine& engine = *window->engine;
  const std::vector<double> column = engine.ShapeColumn(config);
  const std::vector<double> base_column = engine.ShapeColumn(initial);
  for (size_t i = 0; i < window->segments.size(); ++i) {
    answer.exec_cost += engine.SegmentCost(i, column);
    answer.base_exec_cost += engine.SegmentCost(i, base_column);
  }
  answer.build_cost = window->engine->TransitionCost(initial, config);
  whatifs_metric_.Get(&registry_, "server.whatifs")->Add(1);
  return answer;
}

Result<RecommendAnswer> AdvisorService::RecommendNow(
    const RecommendRequest& request, Tracer* tracer) {
  bool reused = false;
  CDPD_ASSIGN_OR_RETURN(std::shared_ptr<const RecommendAnswer> answer,
                        Recommend(request, tracer, &reused));
  RecommendAnswer copy = *answer;
  copy.reused_resident = reused;
  return copy;
}

Result<std::shared_ptr<const RecommendAnswer>> AdvisorService::Recommend(
    const RecommendRequest& request, Tracer* tracer, bool* reused) {
  const std::shared_ptr<const WindowState> window = CurrentWindow();
  if (window->segments.empty()) {
    return Status::FailedPrecondition(
        "workload window is empty — INGEST statements first");
  }
  const Configuration initial = initial_config();

  // Effective request: per-request fields win over the service
  // defaults; k < 0 selects the unconstrained solve.
  std::optional<int64_t> k = options_.k;
  if (request.k.has_value()) {
    k = *request.k < 0 ? std::nullopt : std::optional<int64_t>(*request.k);
  }
  const OptimizerMethod method = request.method.value_or(options_.method);
  const std::optional<std::chrono::milliseconds> deadline =
      request.deadline.has_value() ? request.deadline
                                   : options_.default_deadline;
  const std::optional<int64_t> memory_limit =
      request.memory_limit_bytes.has_value()
          ? request.memory_limit_bytes
          : options_.default_memory_limit_bytes;

  // Everything the answer depends on besides the window itself: the
  // resident solution is only reused when all of it matches.
  std::string key = "k=";
  key += k.has_value() ? std::to_string(*k) : std::string("none");
  key += ";method=" + std::string(OptimizerMethodToString(method));
  key += ";prune=" + std::to_string(request.prune ? 1 : 0);
  key += ";chunks=" + std::to_string(request.segment_chunks);
  key += ";deadline=" +
         (deadline.has_value() ? std::to_string(deadline->count())
                               : std::string("none"));
  key += ";mem=" +
         (memory_limit.has_value() ? std::to_string(*memory_limit)
                                   : std::string("none"));
  key += ";initial=" + initial.ToString(options_.schema);

  // Identical-window short-circuit — sound only for deadline-free
  // requests (a deadline-bounded solve's degradation point depends on
  // wall time, so its result is not a pure function of the inputs).
  if (!deadline.has_value()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (resident_.answer != nullptr && resident_.epoch == window->epoch &&
        resident_.options_key == key) {
      recommends_metric_.Get(&registry_, "server.recommends")->Add(1);
      recommends_reused_metric_.Get(&registry_, "server.recommends_reused")
          ->Add(1);
      *reused = true;
      return resident_.answer;
    }
  }

  DesignProblem problem;
  problem.what_if = window->engine.get();
  problem.candidates = candidate_configs_;
  problem.initial = initial;
  problem.space_bound_pages = options_.space_bound_pages;

  SolveOptions solve_options;
  solve_options.method = method;
  solve_options.k = k;
  solve_options.prune_dominated = request.prune;
  solve_options.segmented.num_chunks = request.segment_chunks;
  solve_options.deadline = deadline;
  solve_options.memory_limit_bytes = memory_limit;
  solve_options.cancel = &cancel_;
  // Without a resident pool the service is serial: a solve must not
  // spin up a pool of its own.
  solve_options.pool = pool_.get();
  solve_options.num_threads = 1;
  // Solver metrics always land in the service registry (STATS
  // serializes it); the request-scoped tracer, when there is one,
  // captures this solve's spans in place of the caller's.
  solve_options.observability = options_.observability;
  solve_options.observability.metrics = &registry_;
  if (tracer != nullptr) solve_options.observability.tracer = tracer;
  if (method == OptimizerMethod::kGreedySeq) {
    solve_options.greedy.candidate_indexes = candidate_indexes_;
    solve_options.greedy.max_indexes_per_config =
        options_.max_indexes_per_config;
  }

  CDPD_ASSIGN_OR_RETURN(SolveResult solved, Solve(problem, solve_options));
  if (!solved.reduced_candidates.empty()) {
    // GREEDY-SEQ validated against the reduced set it searched.
    problem.candidates = solved.reduced_candidates;
  }
  CDPD_RETURN_IF_ERROR(ValidateSchedule(problem, solved.schedule, k));

  auto answer = std::make_shared<RecommendAnswer>();
  answer->schedule = std::move(solved.schedule);
  answer->segments = window->segments;
  answer->changes = CountChanges(problem, answer->schedule.configs);
  answer->k = k;
  answer->method = method;
  answer->stats = solved.stats;
  answer->method_detail = std::move(solved.method_detail);
  answer->epoch = window->epoch;

  {
    // The replaced answer is freed after mu_ is released.
    std::shared_ptr<const RecommendAnswer> replaced;
    std::lock_guard<std::mutex> lock(mu_);
    resident_.epoch = window->epoch;
    resident_.options_key = key;
    replaced = std::exchange(resident_.answer, answer);
    if (request.apply && !answer->schedule.configs.empty()) {
      initial_ = answer->schedule.configs.back();
    }
  }
  recommends_metric_.Get(&registry_, "server.recommends")->Add(1);
  *reused = false;
  return std::shared_ptr<const RecommendAnswer>(std::move(answer));
}

Result<std::string> AdvisorService::Handle(uint8_t opcode,
                                           std::string_view payload,
                                           const RequestContext& ctx) {
  switch (static_cast<ServerOp>(opcode)) {
    case ServerOp::kPing:
      return std::string();
    case ServerOp::kIngest: {
      // Parse and window swap are one operation here (ReadTrace runs
      // inside IngestSql), so the whole op is the "solve" span.
      CDPD_TRACE_SPAN(ctx.tracer, "request.solve", "server");
      CDPD_ASSIGN_OR_RETURN(IngestAck ack, IngestSql(payload));
      return ack.ToJson();
    }
    case ServerOp::kWhatIf: {
      Result<Configuration> config = [&]() -> Result<Configuration> {
        CDPD_TRACE_SPAN(ctx.tracer, "request.parse", "server");
        return ParseConfigSpec(payload);
      }();
      CDPD_RETURN_IF_ERROR(config.status());
      CDPD_TRACE_SPAN(ctx.tracer, "request.solve", "server");
      CDPD_ASSIGN_OR_RETURN(WhatIfAnswer answer, WhatIfConfig(*config));
      return answer.ToJson(options_.schema);
    }
    case ServerOp::kRecommend: {
      Result<RecommendRequest> request = [&]() -> Result<RecommendRequest> {
        CDPD_TRACE_SPAN(ctx.tracer, "request.parse", "server");
        return ParseRecommendRequest(payload);
      }();
      CDPD_RETURN_IF_ERROR(request.status());
      CDPD_TRACE_SPAN(ctx.tracer, "request.solve", "server");
      bool reused = false;
      CDPD_ASSIGN_OR_RETURN(std::shared_ptr<const RecommendAnswer> answer,
                            Recommend(*request, ctx.tracer, &reused));
      return answer->ToJson(options_.schema, reused);
    }
    case ServerOp::kStats:
      return StatsJson();
    case ServerOp::kShutdown:
      return Status::InvalidArgument(
          "SHUTDOWN is handled by the transport, not the service");
  }
  return Status::InvalidArgument("unknown opcode " +
                                 std::to_string(static_cast<int>(opcode)));
}

MetricsSnapshot AdvisorService::StatsSnapshot() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry_.gauge("server.window_statements")
        ->Set(static_cast<int64_t>(window_->statements.size()));
    registry_.gauge("server.window_epoch")
        ->Set(static_cast<int64_t>(window_->epoch));
  }
  registry_.gauge("server.slowlog_entries")
      ->Set(static_cast<int64_t>(slow_log_.Slowest().size()));
  registry_.counter("server.slowlog_recorded");  // Ensure it is visible.
  SampleProcessMemory(&registry_);
  return registry_.Snapshot();
}

std::string AdvisorService::StatsJson() { return StatsSnapshot().ToJson(); }

double AdvisorService::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_time_)
      .count();
}

std::string AdvisorService::VarzJson() {
  std::string out = "{\"git_sha\":" + JsonString(BuildGitSha());
  out += ",\"build_type\":" + JsonString(BuildTypeName());
  out += ",\"uptime_seconds\":" + JsonDouble(UptimeSeconds());
  out += ",\"recorder\":";
  Recorder* recorder = recorder_.load(std::memory_order_acquire);
  out += recorder != nullptr ? recorder->StatusJson()
                             : std::string("{\"recording\":false}");
  // Splice the stats document's members in at the top level: StatsJson
  // yields "{...}"; drop its opening brace and keep the rest.
  const std::string stats = StatsJson();
  out += ",";
  out += std::string_view(stats).substr(1);
  return out;
}

void AdvisorService::MaybeWriteFailurePostmortem(const std::string& reason) {
  if (options_.postmortem_dir.empty()) return;
  bool expected = false;
  if (!failure_postmortem_written_.compare_exchange_strong(expected, true)) {
    return;
  }
  const Status status =
      WritePostmortemBundle(this, recorder_.load(std::memory_order_acquire),
                            options_.postmortem_dir + "/failure", reason);
  if (!status.ok()) {
    CDPD_LOG(options_.observability.logger, LogLevel::kWarn,
             "postmortem.write_failed", {"reason", reason},
             {"error", status.message()});
  }
}

}  // namespace cdpd
