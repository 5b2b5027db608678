#include "core/explain.h"

#include <cstdio>

#include "common/json_util.h"
#include "core/k_aware_graph.h"

namespace cdpd {

namespace {

/// %.6g rendering for the human-readable report (the JSON renderer
/// uses the round-trippable %.17g from json_util).
std::string ShortDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// "build I(a), I(c,d); drop I(b)" — the physical work of a delta.
std::string DescribeWork(const Schema& schema,
                         const std::vector<IndexDef>& built,
                         const std::vector<IndexDef>& dropped) {
  std::string out;
  if (!built.empty()) {
    out += "build ";
    for (size_t i = 0; i < built.size(); ++i) {
      if (i > 0) out += ", ";
      out += built[i].ToString(schema);
    }
  }
  if (!dropped.empty()) {
    if (!out.empty()) out += "; ";
    out += "drop ";
    for (size_t i = 0; i < dropped.size(); ++i) {
      if (i > 0) out += ", ";
      out += dropped[i].ToString(schema);
    }
  }
  if (out.empty()) out = "(no physical change)";
  return out;
}

void AppendIndexArray(std::string* out, const Schema& schema,
                      const std::vector<IndexDef>& indexes) {
  out->push_back('[');
  for (size_t i = 0; i < indexes.size(); ++i) {
    if (i > 0) out->append(", ");
    out->append(JsonString(indexes[i].ToString(schema)));
  }
  out->push_back(']');
}

}  // namespace

ExplainReport BuildExplainReport(const DesignProblem& problem,
                                 const DesignSchedule& schedule,
                                 std::string_view method,
                                 std::string_view method_detail,
                                 std::optional<int64_t> k,
                                 const SolveStats& stats,
                                 std::optional<double> unconstrained_cost) {
  const WhatIfEngine& what_if = *problem.what_if;
  const std::vector<Segment>& segments = what_if.segments();
  const std::vector<Configuration>& configs = schedule.configs;
  const size_t n = configs.size();

  ExplainReport report;
  report.method = std::string(method);
  report.method_detail = std::string(method_detail);
  report.k = k;
  report.num_segments = n;
  report.num_statements = segments.empty() ? 0 : segments.back().end;
  report.changes_used = CountChanges(problem, configs);
  report.stats = stats;
  report.deadline_hit = stats.deadline_hit;
  report.best_effort = stats.best_effort;
  report.solver_reported_cost = schedule.total_cost;
  report.unconstrained_cost = unconstrained_cost;
  // Space-bound check: what §3 says the k-aware table should cost for
  // these dimensions, against what the tracker saw the solve reserve.
  if (k.has_value()) {
    report.predicted_kaware_bytes = PredictKAwareTableBytes(
        static_cast<int64_t>(problem.num_segments()), problem.candidates, *k,
        problem.count_initial_change, stats.segment_chunks);
  }
  report.actual_kaware_bytes =
      stats.component_peak_bytes[static_cast<size_t>(
          MemComponent::kKAwareTable)];

  // Totals, accumulated in exactly EvaluateScheduleCost's interleaved
  // TRANS/EXEC order so `total_cost` reproduces the solver-reported
  // schedule cost bit-for-bit (floating-point addition is order
  // sensitive; the side totals use their own accumulators).
  ScheduleColumns columns(what_if);
  double total = 0.0;
  double exec_total = 0.0;
  double trans_total = 0.0;
  const Configuration* previous = &problem.initial;
  for (size_t i = 0; i < n; ++i) {
    const double trans = what_if.TransitionCost(*previous, configs[i]);
    total += trans;
    trans_total += trans;
    const double exec = what_if.SegmentCost(i, columns.For(configs[i]));
    total += exec;
    exec_total += exec;
    previous = &configs[i];
  }
  if (problem.final_config.has_value()) {
    const double trans = what_if.TransitionCost(*previous, *problem.final_config);
    total += trans;
    trans_total += trans;
  }
  report.total_cost = total;
  report.exec_total = exec_total;
  report.trans_total = trans_total;
  report.exact = total == schedule.total_cost;
  if (unconstrained_cost.has_value()) {
    report.optimality_gap = total - *unconstrained_cost;
  }

  // One ExplainTransition per actual design change, walking the runs
  // of equal configurations.
  auto add_transition = [&](size_t first_segment, const Configuration& from,
                            const Configuration& to, std::string_view kind,
                            bool counts_against_k) {
    ExplainTransition t;
    t.segment = first_segment;
    t.first_statement = first_segment < n ? segments[first_segment].begin
                                          : report.num_statements;
    t.from = from;
    t.to = to;
    ConfigurationDelta delta = DiffConfigurations(from, to);
    t.built = std::move(delta.created);
    t.dropped = std::move(delta.dropped);
    t.trans_cost = what_if.TransitionCost(from, to);
    t.kind = kind;
    t.counts_against_k = counts_against_k;
    // The run: consecutive segments holding `to`.
    size_t run_end = first_segment;
    while (run_end < n && configs[run_end] == to) ++run_end;
    t.run_end = run_end;
    t.run_end_statement =
        run_end > first_segment ? segments[run_end - 1].end : t.first_statement;
    // Savings versus having stayed in `from`, with the earliest
    // statement by which they recoup TRANS.
    const std::span<const double> from_column = columns.For(from);
    const std::span<const double> to_column = columns.For(to);
    double cumulative = 0.0;
    for (size_t j = first_segment; j < run_end; ++j) {
      cumulative += what_if.SegmentCost(j, from_column) -
                    what_if.SegmentCost(j, to_column);
      if (!t.break_even_statement.has_value() && cumulative >= t.trans_cost) {
        t.break_even_statement = segments[j].end;
      }
    }
    t.exec_savings = cumulative;
    report.transitions.push_back(std::move(t));
  };

  previous = &problem.initial;
  for (size_t i = 0; i < n; ++i) {
    if (configs[i] != *previous) {
      const bool initial = i == 0;
      add_transition(i, *previous, configs[i],
                     initial ? "initial" : "interior",
                     !initial || problem.count_initial_change);
    }
    previous = &configs[i];
  }
  if (problem.final_config.has_value() && *problem.final_config != *previous) {
    // The paper's destination constraint: happens after the last
    // statement and never counts against k.
    add_transition(n, *previous, *problem.final_config, "final", false);
  }
  return report;
}

std::string ExplainReport::ToText(const Schema& schema) const {
  std::string out;
  out += "explain (schema v" + std::to_string(kSchemaVersion) + ")\n";
  out += "  method:         " + method;
  if (!method_detail.empty()) out += " — " + method_detail;
  out += "\n";
  out += "  k:              ";
  out += k.has_value() ? std::to_string(*k) : std::string("unconstrained");
  out += ", changes used: " + std::to_string(changes_used) + "\n";
  out += "  workload:       " + std::to_string(num_statements) +
         " statements in " + std::to_string(num_segments) + " segments\n";
  out += "  schedule cost:  " + ShortDouble(total_cost) +
         (exact ? "  (attribution exact)\n"
                : "  (solver reported " + ShortDouble(solver_reported_cost) +
                      ")\n");
  out += "    EXEC total:   " + ShortDouble(exec_total) + "\n";
  out += "    TRANS total:  " + ShortDouble(trans_total) + "\n";
  if (unconstrained_cost.has_value()) {
    out += "  unconstrained:  " + ShortDouble(*unconstrained_cost) +
           "  (gap " + ShortDouble(optimality_gap.value_or(0.0)) +
           " = price of the change budget)\n";
  }
  out += "  provenance:     ";
  if (deadline_hit) {
    out += "deadline hit — anytime fallback\n";
  } else if (best_effort) {
    out += "best-effort fallback\n";
  } else {
    out += "normal\n";
  }
  out += "  solve:          " + ShortDouble(stats.wall_seconds) + " s, " +
         std::to_string(stats.threads_used) + " threads, " +
         std::to_string(stats.costings) + " costings\n";
  // Scale line only when pruning or checkpointing actually engaged, so
  // golden reports from plain solves render byte-identically.
  if (stats.pruned_configs > 0 || stats.segment_chunks > 0) {
    out += "  scale:          " + std::to_string(stats.pruned_configs) +
           " dominated configs pruned";
    if (stats.segment_chunks > 0) {
      out += ", " + std::to_string(stats.segment_chunks) +
             " checkpoint blocks";
    }
    out += "\n";
  }
  // Memory block only when the solve tracked anything (golden reports
  // built without a tracker render byte-identically to schema v1).
  if (stats.peak_bytes_total > 0 || predicted_kaware_bytes > 0 ||
      stats.memory_limit_hit) {
    out += "  memory:         peak " + std::to_string(stats.peak_bytes_total) +
           " bytes tracked, cpu " + ShortDouble(stats.cpu_seconds) + " s";
    if (stats.memory_limit_hit) out += "  (memory limit hit)";
    out += "\n";
    if (predicted_kaware_bytes > 0) {
      out += "    k-aware:      predicted " +
             std::to_string(predicted_kaware_bytes) + " bytes";
      if (actual_kaware_bytes > 0) {
        out += ", actual " + std::to_string(actual_kaware_bytes) +
               " bytes (ratio " +
               ShortDouble(static_cast<double>(actual_kaware_bytes) /
                           static_cast<double>(predicted_kaware_bytes)) +
               ")";
      } else {
        out += ", table never built";
      }
      out += "\n";
    }
  }

  out += "transitions (" + std::to_string(transitions.size()) + "):\n";
  // Two passes so the statement and work columns align.
  std::vector<std::string> stmt_col;
  std::vector<std::string> work_col;
  size_t stmt_width = 0;
  size_t work_width = 0;
  for (const ExplainTransition& t : transitions) {
    std::string stmt = t.kind == "final"
                           ? std::string("@end")
                           : "@stmt " + std::to_string(t.first_statement);
    if (stmt.size() > stmt_width) stmt_width = stmt.size();
    stmt_col.push_back(std::move(stmt));
    std::string work = DescribeWork(schema, t.built, t.dropped);
    if (work.size() > work_width) work_width = work.size();
    work_col.push_back(std::move(work));
  }
  for (size_t i = 0; i < transitions.size(); ++i) {
    const ExplainTransition& t = transitions[i];
    out += "  " + stmt_col[i];
    out.append(stmt_width - stmt_col[i].size() + 2, ' ');
    out += t.kind == "initial" ? "initial " : t.kind == "final" ? "final   "
                                                                : "change  ";
    out += work_col[i];
    out.append(work_width - work_col[i].size() + 2, ' ');
    out += "TRANS " + ShortDouble(t.trans_cost);
    if (t.kind == "final") {
      out += "  (destination constraint)";
    } else {
      out += "  saves " + ShortDouble(t.exec_savings) + " over stmts [" +
             std::to_string(t.first_statement) + ", " +
             std::to_string(t.run_end_statement) + ")";
      if (t.break_even_statement.has_value()) {
        out += "  break-even @stmt " + std::to_string(*t.break_even_statement);
      } else {
        out += "  never breaks even in its run";
      }
    }
    if (!t.counts_against_k && t.kind == "initial") {
      out += "  (free: initial build)";
    }
    out += "\n";
  }
  return out;
}

std::string ExplainReport::ToJson(const Schema& schema) const {
  std::string out = "{";
  out += "\"schema_version\": " + std::to_string(kSchemaVersion);
  out += ", \"kind\": \"cdpd.explain\"";
  out += ", \"summary\": {";
  out += "\"method\": " + JsonString(method);
  out += ", \"method_detail\": " + JsonString(method_detail);
  out += ", \"k\": " + (k.has_value() ? std::to_string(*k) : "null");
  out += ", \"changes_used\": " + std::to_string(changes_used);
  out += ", \"num_segments\": " + std::to_string(num_segments);
  out += ", \"num_statements\": " + std::to_string(num_statements);
  out += ", \"exec_total\": " + JsonDouble(exec_total);
  out += ", \"trans_total\": " + JsonDouble(trans_total);
  out += ", \"total_cost\": " + JsonDouble(total_cost);
  out += ", \"solver_reported_cost\": " + JsonDouble(solver_reported_cost);
  out += std::string(", \"exact\": ") + (exact ? "true" : "false");
  out += ", \"unconstrained_cost\": " +
         (unconstrained_cost.has_value() ? JsonDouble(*unconstrained_cost)
                                         : "null");
  out += ", \"optimality_gap\": " +
         (optimality_gap.has_value() ? JsonDouble(*optimality_gap) : "null");
  out += std::string(", \"deadline_hit\": ") + (deadline_hit ? "true" : "false");
  out += std::string(", \"best_effort\": ") + (best_effort ? "true" : "false");
  out += ", \"predicted_kaware_bytes\": " +
         std::to_string(predicted_kaware_bytes);
  out += ", \"actual_kaware_bytes\": " + std::to_string(actual_kaware_bytes);
  out += ", \"kaware_bytes_ratio\": " +
         (predicted_kaware_bytes > 0 && actual_kaware_bytes > 0
              ? JsonDouble(static_cast<double>(actual_kaware_bytes) /
                           static_cast<double>(predicted_kaware_bytes))
              : std::string("null"));
  out += "}";
  out += ", \"stats\": " + stats.ToJson();
  out += ", \"transitions\": [";
  for (size_t i = 0; i < transitions.size(); ++i) {
    const ExplainTransition& t = transitions[i];
    if (i > 0) out += ", ";
    out += "{";
    out += "\"kind\": " + JsonString(t.kind);
    out += ", \"segment\": " + std::to_string(t.segment);
    out += ", \"first_statement\": " + std::to_string(t.first_statement);
    out += ", \"run_end\": " + std::to_string(t.run_end);
    out += ", \"run_end_statement\": " + std::to_string(t.run_end_statement);
    out += ", \"counts_against_k\": ";
    out += t.counts_against_k ? "true" : "false";
    out += ", \"from\": " + JsonString(t.from.ToString(schema));
    out += ", \"to\": " + JsonString(t.to.ToString(schema));
    out += ", \"built\": ";
    AppendIndexArray(&out, schema, t.built);
    out += ", \"dropped\": ";
    AppendIndexArray(&out, schema, t.dropped);
    out += ", \"trans_cost\": " + JsonDouble(t.trans_cost);
    out += ", \"exec_savings\": " + JsonDouble(t.exec_savings);
    out += ", \"break_even_statement\": " +
           (t.break_even_statement.has_value()
                ? std::to_string(*t.break_even_statement)
                : "null");
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace cdpd
