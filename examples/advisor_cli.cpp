// Command-line advisor: the adoption path for a real user.
//
//   advisor_cli [trace.sql] [--k N] [--block N] [--method NAME]
//               [--threads N] [--rows N] [--deadline-ms N]
//               [--memory-limit-bytes N] [--segments N] [--prune]
//               [--calibrate]
//               [--emit-ddl] [--explain] [--mem-stats] [--quiet]
//               [--metrics-out=FILE] [--trace-out=FILE]
//               [--explain-out=FILE] [--log-out=FILE]
//
// Reads a SQL workload trace (or generates the paper's W1 as a demo),
// recommends a change-constrained dynamic design, and optionally emits
// the CREATE/DROP INDEX script that enacts it. With --calibrate, cost
// model constants are measured on a scratch database first. Run
// `advisor_cli --help` for the full flag reference, including the
// observability artifacts (metrics, traces, explain reports, logs).

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>
#include <string>

#if defined(_WIN32)
#include <io.h>
#define CDPD_CLI_ISATTY _isatty
#define CDPD_CLI_FILENO _fileno
#else
#include <unistd.h>
#define CDPD_CLI_ISATTY isatty
#define CDPD_CLI_FILENO fileno
#endif

#include "common/log.h"
#include "common/metrics.h"
#include "common/progress.h"
#include "common/resource_tracker.h"
#include "common/tracing.h"
#include "core/advisor.h"
#include "cost/calibration.h"
#include "engine/database.h"
#include "workload/standard_workloads.h"
#include "workload/trace_io.h"

using namespace cdpd;

namespace {

struct CliArgs {
  std::string trace_path;
  int64_t k = 2;  // < 0 = unconstrained.
  size_t block = 500;
  std::string method = "optimal";
  int64_t threads = 0;  // 0 = CDPD_THREADS / hardware default.
  int64_t rows = 250'000;
  int64_t deadline_ms = -1;  // < 0 = no deadline.
  int64_t memory_limit_bytes = -1;  // < 0 = no limit.
  int64_t segments = 0;       // Checkpoint blocks of the k-aware DP; 0 = auto.
  bool prune = false;         // Dominance-prune the candidate space.
  bool calibrate = false;
  bool emit_ddl = false;
  bool explain = false;     // Print the EXEC/TRANS attribution table.
  bool mem_stats = false;   // Print the solve's memory/cpu accounting.
  bool quiet = false;       // Suppress progress + informational chatter.
  bool help = false;
  std::string metrics_out;  // Empty = no metrics artifact.
  std::string trace_out;    // Empty = no trace artifact.
  std::string explain_out;  // Empty = no explain JSON artifact.
  std::string log_out;      // Empty = no JSONL log artifact.
};

void PrintHelp(std::FILE* out) {
  std::fprintf(out,
      "usage: advisor_cli [trace.sql] [flags]\n"
      "\n"
      "Recommends a change-constrained dynamic physical design for a\n"
      "SQL workload trace (no trace: the paper's W1 is generated as a\n"
      "demo).\n"
      "\n"
      "solve flags:\n"
      "  --k N             change bound k (N < 0 = unconstrained; "
      "default 2)\n"
      "  --block N         statements per advisor segment (default 500)\n"
      "  --method NAME     optimal|greedy-seq|merging|ranking|hybrid\n"
      "  --threads N       worker threads (0 = CDPD_THREADS / hardware;\n"
      "                    at most 1024)\n"
      "  --rows N          table rows assumed by the cost model\n"
      "  --deadline-ms N   wall-clock budget; on expiry the best\n"
      "                    feasible schedule found so far is reported\n"
      "  --memory-limit-bytes N\n"
      "                    soft byte budget for the solver's tracked\n"
      "                    allocations; an over-budget solve degrades\n"
      "                    to a best-effort schedule instead of\n"
      "                    allocating past the limit\n"
      "  --segments N      checkpoint blocks of the k-aware DP\n"
      "                    (0 = auto and 1: one block; N >= 2 keeps\n"
      "                    one block's parent table and re-relaxes\n"
      "                    the earlier blocks once more; the same\n"
      "                    schedule for every value)\n"
      "  --prune           drop dominated candidate configurations\n"
      "                    before solving (exact; see the explain\n"
      "                    header's scale line)\n"
      "  --calibrate       measure cost-model constants on a scratch db\n"
      "  --emit-ddl        print the CREATE/DROP INDEX script\n"
      "\n"
      "observability flags (see docs/observability.md):\n"
      "  --explain             print the per-transition EXEC/TRANS\n"
      "                        attribution of the schedule\n"
      "  --explain-out=FILE    write the attribution as JSON\n"
      "                        (cdpd.explain schema; implies building\n"
      "                        the report)\n"
      "  --metrics-out=FILE    write a JSON metrics snapshot (counters,\n"
      "                        gauges, histograms)\n"
      "  --trace-out=FILE      write Chrome trace_event JSON of the\n"
      "                        solve's spans (chrome://tracing,\n"
      "                        Perfetto)\n"
      "  --log-out=FILE        write the structured JSONL log of the\n"
      "                        solve (one JSON object per event)\n"
      "  --mem-stats           print the solve's memory accounting:\n"
      "                        tracked peak bytes per component, cpu\n"
      "                        time, and process peak RSS\n"
      "  --quiet               no progress bar, no informational\n"
      "                        chatter; results and artifacts only\n"
      "  --help                this text\n");
}

/// Strict base-10 parse: the whole string must be a number. atoll's
/// silent garbage-to-0 coercion turned typos like `--rows 25O000` into
/// a valid-looking run over the wrong table size.
bool ParseInt64(const std::string& text, int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = static_cast<int64_t>(value);
  return true;
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind('-', 0) != 0) {
      if (!args->trace_path.empty()) {
        std::fprintf(stderr,
                     "unexpected positional argument '%s' (the trace is "
                     "already '%s')\n",
                     arg.c_str(), args->trace_path.c_str());
        return false;
      }
      args->trace_path = arg;
      continue;
    }
    // Both `--flag value` and `--flag=value` spellings are accepted.
    std::string name = arg;
    std::string value;
    bool has_value = false;
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    if (name != "--help" && name != "-h" && !seen.insert(name).second) {
      std::fprintf(stderr, "duplicate flag %s\n", name.c_str());
      return false;
    }
    auto take_string = [&](std::string* out) {
      if (has_value) {
        *out = value;
      } else if (i + 1 < argc) {
        *out = argv[++i];
      } else {
        std::fprintf(stderr, "flag %s needs a value\n", name.c_str());
        return false;
      }
      if (out->empty()) {
        std::fprintf(stderr, "flag %s needs a non-empty value\n",
                     name.c_str());
        return false;
      }
      return true;
    };
    auto take_int = [&](int64_t* out) {
      std::string text;
      if (!take_string(&text)) return false;
      if (!ParseInt64(text, out)) {
        std::fprintf(stderr, "flag %s needs an integer, got '%s'\n",
                     name.c_str(), text.c_str());
        return false;
      }
      return true;
    };
    auto set_bool = [&](bool* out) {
      if (has_value) {
        std::fprintf(stderr, "flag %s takes no value\n", name.c_str());
        return false;
      }
      *out = true;
      return true;
    };
    if (name == "--k") {
      if (!take_int(&args->k)) return false;
    } else if (name == "--block") {
      int64_t block = 0;
      if (!take_int(&block) || block <= 0) return false;
      args->block = static_cast<size_t>(block);
    } else if (name == "--threads") {
      if (!take_int(&args->threads) || args->threads < 0 ||
          args->threads > ThreadPool::kMaxThreads) {
        return false;
      }
    } else if (name == "--rows") {
      if (!take_int(&args->rows) || args->rows <= 0) return false;
    } else if (name == "--deadline-ms") {
      if (!take_int(&args->deadline_ms) || args->deadline_ms < 0) {
        return false;
      }
    } else if (name == "--memory-limit-bytes") {
      if (!take_int(&args->memory_limit_bytes) ||
          args->memory_limit_bytes <= 0) {
        return false;
      }
    } else if (name == "--segments") {
      if (!take_int(&args->segments) || args->segments < 0 ||
          args->segments > std::numeric_limits<int>::max()) {
        return false;
      }
    } else if (name == "--method") {
      if (!take_string(&args->method)) return false;
    } else if (name == "--metrics-out") {
      if (!take_string(&args->metrics_out)) return false;
    } else if (name == "--trace-out") {
      if (!take_string(&args->trace_out)) return false;
    } else if (name == "--explain-out") {
      if (!take_string(&args->explain_out)) return false;
    } else if (name == "--log-out") {
      if (!take_string(&args->log_out)) return false;
    } else if (name == "--prune") {
      if (!set_bool(&args->prune)) return false;
    } else if (name == "--calibrate") {
      if (!set_bool(&args->calibrate)) return false;
    } else if (name == "--emit-ddl") {
      if (!set_bool(&args->emit_ddl)) return false;
    } else if (name == "--explain") {
      if (!set_bool(&args->explain)) return false;
    } else if (name == "--mem-stats") {
      if (!set_bool(&args->mem_stats)) return false;
    } else if (name == "--quiet") {
      if (!set_bool(&args->quiet)) return false;
    } else if (name == "--help" || name == "-h") {
      if (!set_bool(&args->help)) return false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", name.c_str());
      return false;
    }
  }
  return true;
}

Result<OptimizerMethod> MethodFromName(const std::string& name) {
  if (name == "optimal") return OptimizerMethod::kOptimal;
  if (name == "greedy-seq") return OptimizerMethod::kGreedySeq;
  if (name == "merging") return OptimizerMethod::kMerging;
  if (name == "ranking") return OptimizerMethod::kRanking;
  if (name == "hybrid") return OptimizerMethod::kHybrid;
  return Status::InvalidArgument(
      "unknown method '" + name +
      "' (optimal|greedy-seq|merging|ranking|hybrid)");
}

/// The DDL script enacting a schedule: index changes at each segment
/// boundary, ready to feed back into Database::ExecuteSql (or any SQL
/// console of the dialect).
std::string EmitDdl(const Schema& schema, const Recommendation& rec) {
  std::string out;
  const Configuration* previous = nullptr;
  const Configuration empty;
  for (size_t s = 0; s < rec.segments.size(); ++s) {
    const Configuration& config = rec.schedule.configs[s];
    const Configuration& from = previous != nullptr ? *previous : empty;
    const ConfigurationDelta delta = DiffConfigurations(from, config);
    if (!delta.created.empty() || !delta.dropped.empty()) {
      out += "-- before statement " + std::to_string(rec.segments[s].begin + 1) +
             "\n";
      for (const IndexDef& def : delta.dropped) {
        std::string cols;
        for (ColumnId col : def.key_columns()) {
          if (!cols.empty()) cols += ", ";
          cols += schema.column_name(col);
        }
        out += "DROP INDEX ON " + schema.table_name() + " (" + cols + ");\n";
      }
      for (const IndexDef& def : delta.created) {
        std::string cols;
        for (ColumnId col : def.key_columns()) {
          if (!cols.empty()) cols += ", ";
          cols += schema.column_name(col);
        }
        out += "CREATE INDEX ON " + schema.table_name() + " (" + cols +
               ");\n";
      }
    }
    previous = &config;
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  return std::fclose(f) == 0 && written == content.size();
}

/// A stderr progress bar fed by the solver's ProgressFn. The callback
/// arrives from worker threads (precompute shards), so updates are
/// mutex-protected; redraws are throttled to whole-percent changes per
/// phase to keep the terminal readable.
class ProgressBar {
 public:
  void Update(const ProgressUpdate& update) {
    std::lock_guard<std::mutex> lock(mu_);
    const int percent = static_cast<int>(update.fraction * 100.0);
    if (update.phase == last_phase_ && percent == last_percent_) return;
    if (update.phase != last_phase_ && !last_phase_.empty()) {
      std::fprintf(stderr, "\n");
    }
    last_phase_ = update.phase;
    last_percent_ = percent;
    constexpr int kWidth = 32;
    const int filled = percent * kWidth / 100;
    char bar[kWidth + 1];
    for (int i = 0; i < kWidth; ++i) bar[i] = i < filled ? '=' : ' ';
    bar[kWidth] = '\0';
    std::fprintf(stderr, "\r  %-20s [%s] %3d%%", update.phase, bar, percent);
  }

  void Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!last_phase_.empty()) std::fprintf(stderr, "\n");
    last_phase_.clear();
    last_percent_ = -1;
  }

 private:
  std::mutex mu_;
  std::string last_phase_;
  int last_percent_ = -1;
};

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintHelp(stderr);
    return 2;
  }
  if (args.help) {
    PrintHelp(stdout);
    return 0;
  }
  const bool chatty = !args.quiet;

  const Schema schema = MakePaperSchema();
  Workload trace;
  if (args.trace_path.empty()) {
    if (chatty) {
      std::printf("no trace given; generating the paper's W1 as a demo\n");
    }
    WorkloadGenerator gen(schema, 500'000, 1);
    trace = MakePaperWorkload("W1", &gen).value();
  } else {
    auto loaded = ReadTraceFile(args.trace_path, schema);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load trace: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    trace = std::move(loaded).value();
  }
  if (chatty) {
    std::printf("trace: %zu statements, advisor block size %zu\n",
                trace.size(), args.block);
  }

  CostParams params;
  if (args.calibrate) {
    auto scratch =
        Database::Create(schema, std::min<int64_t>(args.rows, 100'000),
                         500'000, /*seed=*/1);
    if (!scratch.ok()) {
      std::fprintf(stderr, "calibration db failed\n");
      return 1;
    }
    auto report = CalibrateCostParams(scratch->get());
    if (!report.ok()) {
      std::fprintf(stderr, "calibration failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", report->ToString().c_str());
    params = report->params;
  }
  const CostModel model(schema, args.rows, 500'000, params);

  auto method = MethodFromName(args.method);
  if (!method.ok()) {
    std::fprintf(stderr, "%s\n", method.status().ToString().c_str());
    return 2;
  }

  Advisor advisor(&model);
  AdvisorOptions options;
  options.block_size = args.block;
  SolveOptions& solve = options.solve;
  if (args.k >= 0) solve.k = args.k;
  solve.method = *method;
  solve.num_threads = static_cast<int>(args.threads);
  if (args.deadline_ms >= 0) {
    solve.deadline = std::chrono::milliseconds(args.deadline_ms);
  }
  if (args.memory_limit_bytes > 0) {
    solve.memory_limit_bytes = args.memory_limit_bytes;
  }
  solve.segmented.num_chunks = static_cast<int>(args.segments);
  solve.prune_dominated = args.prune;
  MetricsRegistry registry;
  Tracer tracer;
  Logger logger(LogLevel::kInfo);
  ProgressBar bar;
  if (!args.metrics_out.empty()) solve.observability.metrics = &registry;
  if (!args.trace_out.empty()) solve.observability.tracer = &tracer;
  if (!args.log_out.empty()) solve.observability.logger = &logger;
  if (args.explain || !args.explain_out.empty()) solve.explain = true;
  // The live progress bar only makes sense on an interactive stderr
  // and is pure noise in --quiet runs or redirected logs.
  const bool show_progress =
      chatty && CDPD_CLI_ISATTY(CDPD_CLI_FILENO(stderr)) != 0;
  if (show_progress) {
    solve.observability.progress = [&bar](const ProgressUpdate& update) {
      bar.Update(update);
    };
  }
  auto rec = advisor.Recommend(trace, options);
  if (show_progress) bar.Finish();
  if (!rec.ok()) {
    std::fprintf(stderr, "advisor failed: %s\n",
                 rec.status().ToString().c_str());
    return 1;
  }

  const SolveStats& stats = rec->stats;
  std::printf("\nmethod: %s (%s), optimized in %.3fs\n", args.method.c_str(),
              rec->method_detail.c_str(), stats.wall_seconds);
  if (stats.memory_limit_hit) {
    std::printf("memory limit hit: best-effort schedule (the solver "
                "degraded rather than allocate past %lld bytes)\n",
                static_cast<long long>(args.memory_limit_bytes));
  } else if (stats.deadline_hit) {
    std::printf("deadline hit: best-effort schedule (the solver returned "
                "the best feasible design found within %lld ms)\n",
                static_cast<long long>(args.deadline_ms));
  } else if (stats.best_effort) {
    std::printf("best-effort schedule (the enumeration cap was reached "
                "before an optimal answer)\n");
  }
  if (chatty) {
    std::printf(
        "solver stats: %d thread(s), %lld what-if costings, %lld nodes "
        "expanded\n",
        stats.threads_used, static_cast<long long>(stats.costings),
        static_cast<long long>(stats.nodes_expanded));
    if (stats.pruned_configs > 0 || stats.segment_chunks > 0) {
      std::printf("scale: %lld dominated configs pruned, %lld checkpoint "
                  "blocks\n",
                  static_cast<long long>(stats.pruned_configs),
                  static_cast<long long>(stats.segment_chunks));
    }
  }
  if (args.mem_stats) {
    std::printf("memory: %lld bytes tracked peak, %.3fs cpu, "
                "%lld bytes process peak rss\n",
                static_cast<long long>(stats.peak_bytes_total),
                stats.cpu_seconds,
                static_cast<long long>(PeakRssBytes()));
    for (int c = 0; c < kNumMemComponents; ++c) {
      const auto component = static_cast<MemComponent>(c);
      const int64_t peak = stats.component_peak_bytes[c];
      if (peak == 0) continue;
      std::printf("  %-15s %lld bytes peak\n",
                  std::string(MemComponentName(component)).c_str(),
                  static_cast<long long>(peak));
    }
  }
  if (args.k >= 0) {
    std::printf("design changes: %lld (bound %lld), estimated cost %.4e\n",
                static_cast<long long>(rec->changes),
                static_cast<long long>(args.k), rec->schedule.total_cost);
  } else {
    std::printf("design changes: %lld (unconstrained), estimated cost %.4e\n",
                static_cast<long long>(rec->changes),
                rec->schedule.total_cost);
  }
  std::printf("\nschedule:\n");
  const Configuration* previous = nullptr;
  for (size_t s = 0; s < rec->segments.size(); ++s) {
    const Configuration& config = rec->schedule.configs[s];
    if (previous == nullptr || !(config == *previous)) {
      std::printf("  statements %6zu..: %s\n", rec->segments[s].begin + 1,
                  config.ToString(schema).c_str());
    }
    previous = &config;
  }
  if (args.emit_ddl) {
    std::printf("\n-- DDL script --\n%s", EmitDdl(schema, *rec).c_str());
  }
  if (solve.explain) {
    if (!rec->explain.has_value()) {
      std::fprintf(stderr, "explain report missing from recommendation\n");
      return 1;
    }
    if (args.explain) {
      std::printf("\n%s", rec->explain->ToText(schema).c_str());
    }
    if (!rec->explain->exact) {
      // The attribution is built to reproduce the solver's cost
      // bit-for-bit; any drift means the report cannot be trusted.
      std::fprintf(stderr,
                   "explain totals do not match the solver cost "
                   "(attribution %.17g vs solver %.17g)\n",
                   rec->explain->total_cost,
                   rec->explain->solver_reported_cost);
      return 1;
    }
    if (!args.explain_out.empty()) {
      if (!WriteFile(args.explain_out, rec->explain->ToJson(schema))) {
        std::fprintf(stderr, "cannot write %s\n", args.explain_out.c_str());
        return 1;
      }
      if (chatty) {
        std::printf("\nexplain report written to %s\n",
                    args.explain_out.c_str());
      }
    }
  }
  if (!args.log_out.empty()) {
    if (!WriteFile(args.log_out, logger.ToJsonl())) {
      std::fprintf(stderr, "cannot write %s\n", args.log_out.c_str());
      return 1;
    }
    if (chatty) {
      std::printf("log (%zu events) written to %s\n", logger.num_events(),
                  args.log_out.c_str());
    }
  }
  if (!args.metrics_out.empty()) {
    const MetricsSnapshot snapshot = registry.Snapshot();
    // The registry's "solver.*" counters are the same numbers the
    // SolveStats above reports — sanity-check the round trip before
    // exporting, so the artifact can be trusted to match the printout.
    const SolveStats from_registry = SolveStats::FromSnapshot(snapshot);
    if (from_registry.costings != stats.costings ||
        from_registry.nodes_expanded != stats.nodes_expanded) {
      std::fprintf(stderr,
                   "metrics/stats mismatch: registry %lld costings / %lld "
                   "nodes expanded, SolveStats %lld / %lld\n",
                   static_cast<long long>(from_registry.costings),
                   static_cast<long long>(from_registry.nodes_expanded),
                   static_cast<long long>(stats.costings),
                   static_cast<long long>(stats.nodes_expanded));
      return 1;
    }
    if (!WriteFile(args.metrics_out, snapshot.ToJson())) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_out.c_str());
      return 1;
    }
    std::printf("\nmetrics snapshot written to %s\n", args.metrics_out.c_str());
  }
  if (!args.trace_out.empty()) {
    if (!WriteFile(args.trace_out, tracer.ToChromeJson())) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("trace (%zu spans) written to %s\n", tracer.num_events(),
                args.trace_out.c_str());
  }
  return 0;
}
