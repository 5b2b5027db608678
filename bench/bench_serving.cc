// Serving throughput and latency of the resident advisor. Starts an
// in-process AdvisorServer on an ephemeral loopback port, pre-ingests
// a sliding window of paper-style statements, then drives it open-loop
// from N client connections (real sockets, real frames) through four
// load shapes:
//
//   ping            transport + frame floor
//   whatif          configuration costing against the resident window
//   recommend_warm  deadline-free re-solves (resident-solution reuse)
//   recommend_after_slide
//                   a second server with a 100k-statement window (1000
//                   stages): each tick INGESTs one block, then RECOMMEND
//                   k=2 re-solves the slid window; only the RECOMMENDs
//                   are timed
//   mixed           90% whatif / 8% recommend / 2% ingest — ingests
//                   slide the window, so the recommends re-solve
//                   warm-started instead of reusing the resident answer
//   mixed_recorded  the mixed shape again with the flight recorder
//                   journaling every request — best-of-3 alternating
//                   rounds against the best plain round; the req/s
//                   delta is the recording overhead (CI gates < 5%)
//
// Every case reports requests_per_sec (the schema-v3 column
// tools/bench_compare gates on — drops are regressions) plus
// client-observed p50/p95/p99 latency measured through a
// MetricsRegistry histogram. The bench fails when the mixed case
// cannot sustain kMinRequestsPerSec: the serving tier's contract is
// >= 1000 req/s on a development machine.
//
// Sizing overrides: CDPD_SERVING_CONNS (connections, default 8) and
// CDPD_SERVING_REQS (requests per connection per case, default 1500).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "server/advisor_server.h"
#include "server/client.h"
#include "server/recorder.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace {

constexpr double kMinRequestsPerSec = 1000.0;

int64_t EnvSize(const char* name, int64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const int64_t v = std::atoll(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// A paper-shaped trace block: selects over every single-column
/// candidate plus one update, ';'-terminated as ReadTrace expects.
std::string TraceBlock() {
  return "SELECT a FROM t WHERE a = 1;\n"
         "SELECT b FROM t WHERE b = 2;\n"
         "SELECT c FROM t WHERE c = 3;\n"
         "SELECT d FROM t WHERE d = 4;\n"
         "UPDATE t SET a = 5 WHERE b = 6;\n";
}

struct CaseResult {
  double wall_seconds = 0.0;
  int64_t requests = 0;
  int64_t errors = 0;
  HistogramStats latency;  // client-observed, microseconds
};

/// Runs one load shape: `conns` connections, each issuing
/// `reqs_per_conn` back-to-back requests produced by `issue(client, i)`
/// (open loop — the next request leaves as soon as the previous
/// response lands). Latency is recorded client-side into a registry
/// histogram so the percentiles come out of the same machinery the
/// server uses for server.request_us.
template <typename IssueFn>
CaseResult RunCase(int port, int conns, int64_t reqs_per_conn,
                   IssueFn issue) {
  MetricsRegistry registry;
  Histogram* latency_us = registry.histogram("client.request_us");
  std::atomic<int64_t> errors{0};

  std::vector<AdvisorClient> clients;
  clients.reserve(static_cast<size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    Result<AdvisorClient> client = AdvisorClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      std::exit(1);
    }
    clients.push_back(std::move(client).value());
  }

  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      AdvisorClient& client = clients[static_cast<size_t>(c)];
      for (int64_t i = 0; i < reqs_per_conn; ++i) {
        Stopwatch request_watch;
        if (!issue(client, i)) errors.fetch_add(1);
        latency_us->Record(request_watch.ElapsedSeconds() * 1e6);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  CaseResult result;
  result.wall_seconds = watch.ElapsedSeconds();
  result.requests = static_cast<int64_t>(conns) * reqs_per_conn;
  result.errors = errors.load();
  result.latency = registry.Snapshot().histograms.at("client.request_us");
  return result;
}

/// The server-side latency histogram for `op` ("ping", "whatif", ...)
/// as it stands right now. Cases run sequentially and each op
/// concentrates in one case, so sampling "server.op_us.<op>" right
/// after its case finishes gives that case's server-observed
/// percentiles (includes the response write; excludes client-side
/// socket time — the gap to the client percentiles is the loopback +
/// frame overhead).
HistogramStats ServerOpStats(AdvisorService* service, const std::string& op) {
  const MetricsSnapshot snapshot = service->registry()->Snapshot();
  const auto it = snapshot.histograms.find("server.op_us." + op);
  return it != snapshot.histograms.end() ? it->second : HistogramStats{};
}

/// recommend_after_slide's window: 100k statements of the paper's W1
/// at the default 100-statement block size, 1000 DP stages.
constexpr size_t kSlideWindow = 100'000;
constexpr size_t kSlideBlock = 100;
constexpr int kSlideTicks = 60;

/// The paper's W1, scaled to `count` statements, as ';'-terminated SQL
/// lines in batches of `batch` statements.
std::vector<std::string> W1Batches(size_t count, size_t batch) {
  const Schema schema = MakePaperSchema();
  const size_t blocks = PaperBlockMixLetters("W1").size();
  WorkloadGenerator generator(schema, bench_util::kPaperDomain,
                              bench_util::kSeed);
  Workload workload =
      MakeScaledPaperWorkload("W1", (count + blocks - 1) / blocks,
                              &generator)
          .value();
  std::vector<std::string> batches;
  for (size_t begin = 0; begin < count; begin += batch) {
    std::string sql;
    for (size_t i = begin; i < std::min(begin + batch, count); ++i) {
      sql += workload.statements[i].ToString(schema);
      sql += ";\n";
    }
    batches.push_back(std::move(sql));
  }
  return batches;
}

/// The re-solve a sliding window pays on every tick: its own service
/// and server, the window filled with kSlideWindow statements, then
/// kSlideTicks ticks of INGEST one block + RECOMMEND k=2. The ingests
/// are untimed; the case's wall time is the sum of the RECOMMENDs.
CaseResult RunRecommendAfterSlide(HistogramStats* server_stats) {
  ServiceOptions options;
  options.rows = bench_util::ExecutionRows();
  options.block_size = kSlideBlock;
  options.window_statements = kSlideWindow;
  AdvisorService service(std::move(options));
  AdvisorServer server(&service);
  if (const Status status = server.Start(ListenOptions{}); !status.ok()) {
    std::fprintf(stderr, "cannot start the slide server: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  Result<AdvisorClient> client =
      AdvisorClient::Connect("127.0.0.1", server.port());
  if (!client.ok()) std::exit(1);
  const std::vector<std::string> fill = W1Batches(kSlideWindow, 10'000);
  for (const std::string& batch : fill) {
    if (!client->Ingest(batch).ok()) std::exit(1);
  }
  const std::vector<std::string> ticks = W1Batches(
      kSlideTicks * kSlideBlock, kSlideBlock);

  MetricsRegistry registry;
  Histogram* latency_us = registry.histogram("client.request_us");
  CaseResult result;
  for (const std::string& tick : ticks) {
    if (!client->Ingest(tick).ok()) ++result.errors;
    Stopwatch watch;
    if (!client->Recommend("k=2").ok()) ++result.errors;
    const double seconds = watch.ElapsedSeconds();
    result.wall_seconds += seconds;
    latency_us->Record(seconds * 1e6);
  }
  result.requests = static_cast<int64_t>(ticks.size());
  result.latency = registry.Snapshot().histograms.at("client.request_us");
  *server_stats = ServerOpStats(&service, "recommend");
  server.Shutdown();
  return result;
}

void ReportCase(bench_util::BenchReport* report, const std::string& name,
                int conns, const CaseResult& r,
                const HistogramStats& server) {
  const double rps =
      r.wall_seconds > 0.0 ? r.requests / r.wall_seconds : 0.0;
  std::printf("%-21s %8lld req %8.0f req/s   p50 %6.0f us   p95 %6.0f us"
              "   p99 %6.0f us   srv p50 %6.0f us   p99 %6.0f us"
              "   errors %lld\n",
              name.c_str(), static_cast<long long>(r.requests), rps,
              r.latency.p50, r.latency.p95, r.latency.p99, server.p50,
              server.p99, static_cast<long long>(r.errors));
  report->AddServingCase(name, r.wall_seconds, r.requests,
                         {{"connections", static_cast<double>(conns)},
                          {"errors", static_cast<double>(r.errors)},
                          {"p50_us", r.latency.p50},
                          {"p95_us", r.latency.p95},
                          {"p99_us", r.latency.p99},
                          {"server_p50_us", server.p50},
                          {"server_p95_us", server.p95},
                          {"server_p99_us", server.p99},
                          {"server_count", static_cast<double>(server.count)}});
  if (r.errors > 0) {
    std::fprintf(stderr, "case %s had %lld request errors\n", name.c_str(),
                 static_cast<long long>(r.errors));
    std::exit(1);
  }
}

void Run(bench_util::BenchReport* report) {
  using bench_util::PrintHeader;
  using bench_util::PrintRule;

  const int conns = static_cast<int>(EnvSize("CDPD_SERVING_CONNS", 8));
  const int64_t reqs = EnvSize("CDPD_SERVING_REQS", 1500);

  ServiceOptions options;
  options.rows = bench_util::ExecutionRows();
  options.window_statements = 2'000;
  AdvisorService service(std::move(options));
  AdvisorServer server(&service);
  if (const Status status = server.Start(ListenOptions{}); !status.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  const int port = server.port();

  PrintHeader("Serving: advisor_server over loopback TCP");
  std::printf("%d connections x %lld requests per case, window %zu "
              "statements, port %d\n\n",
              conns, static_cast<long long>(reqs),
              service.options().window_statements, port);

  // Seed the resident window: 120 blocks -> 6 segments at the default
  // block size, enough for recommends to have real structure.
  {
    Result<AdvisorClient> seeder = AdvisorClient::Connect("127.0.0.1", port);
    if (!seeder.ok()) std::exit(1);
    std::string batch;
    for (int i = 0; i < 24; ++i) batch += TraceBlock();
    for (int i = 0; i < 5; ++i) {
      if (!seeder->Ingest(batch).ok()) std::exit(1);
    }
  }

  // The server-side histogram must be snapshotted *after* its case ran
  // (function arguments have no evaluation order), so each case is
  // sequenced explicitly.
  const CaseResult ping =
      RunCase(port, conns, reqs, [](AdvisorClient& client, int64_t) {
        return client.Ping().ok();
      });
  ReportCase(report, "ping", conns, ping, ServerOpStats(&service, "ping"));
  const CaseResult whatif =
      RunCase(port, conns, reqs, [](AdvisorClient& client, int64_t i) {
        static const char* kSpecs[] = {"a", "a;b", "c,d", "{}"};
        return client.WhatIf(kSpecs[i % 4]).ok();
      });
  ReportCase(report, "whatif", conns, whatif,
             ServerOpStats(&service, "whatif"));
  const CaseResult recommend_warm =
      RunCase(port, conns, reqs, [](AdvisorClient& client, int64_t) {
        return client.Recommend("k=2\nmethod=optimal").ok();
      });
  ReportCase(report, "recommend_warm", conns, recommend_warm,
             ServerOpStats(&service, "recommend"));
  HistogramStats slide_server;
  const CaseResult after_slide = RunRecommendAfterSlide(&slide_server);
  ReportCase(report, "recommend_after_slide", 1, after_slide, slide_server);
  const std::string ingest_batch = TraceBlock();
  const auto mixed_issue = [&ingest_batch](AdvisorClient& client, int64_t i) {
    const int64_t r = i % 100;
    if (r < 90) return client.WhatIf("a;c,d").ok();
    if (r < 98) return client.Recommend("k=2").ok();
    return client.Ingest(ingest_batch).ok();
  };
  const CaseResult mixed = RunCase(port, conns, reqs, mixed_issue);
  const MetricsSnapshot server_side = service.registry()->Snapshot();
  const HistogramStats server_lat =
      server_side.histograms.count("server.request_us")
          ? server_side.histograms.at("server.request_us")
          : HistogramStats{};
  // Mixed spans three ops, so its server-side column is the overall
  // request_us histogram — cumulative over all cases, not per-case.
  ReportCase(report, "mixed", conns, mixed, server_lat);

  // The same mixed workload with the flight recorder journaling every
  // request: the Append() ring keeps the hot path off the disk, so the
  // req/s delta against the plain mixed case is the recording tax.
  // The journal lands next to the BENCH artifact.
  std::string journal_base = "bench_serving_journal";
  if (const char* dir = std::getenv("CDPD_BENCH_OUT_DIR")) {
    if (dir[0] != '\0') {
      journal_base = std::string(dir) + "/" + journal_base;
    }
  }
  Recorder::Options recorder_options;
  recorder_options.path = journal_base;
  recorder_options.meta.rows = service.options().rows;
  recorder_options.meta.window_statements =
      static_cast<int64_t>(service.options().window_statements);
  Result<std::unique_ptr<Recorder>> recorder =
      Recorder::Open(std::move(recorder_options), service.registry());
  if (!recorder.ok()) {
    std::fprintf(stderr, "cannot start the recorder: %s\n",
                 recorder.status().ToString().c_str());
    std::exit(1);
  }
  // The recording tax cannot be read off one recorded/plain pair: on a
  // busy or single-core machine the plain mixed case alone drifts by
  // double-digit percentages across seconds, which swamps a 5% signal.
  // So each round runs both shapes back to back (order alternating, so
  // slow drift hits each side equally) and contributes one
  // recorded/plain throughput ratio; the median ratio over the rounds
  // is the overhead estimate. Adjacent-pair ratios cancel drift, the
  // median discards the odd preempted round.
  const auto case_rps = [](const CaseResult& r) {
    return r.wall_seconds > 0.0 ? r.requests / r.wall_seconds : 0.0;
  };
  CaseResult best_plain = mixed;
  CaseResult mixed_recorded;
  std::vector<double> ratios;
  constexpr int kOverheadRounds = 5;
  for (int round = 0; round < kOverheadRounds; ++round) {
    const auto run_recorded = [&] {
      service.set_recorder(recorder->get());
      const CaseResult rec = RunCase(port, conns, reqs, mixed_issue);
      service.set_recorder(nullptr);
      if (case_rps(rec) > case_rps(mixed_recorded)) mixed_recorded = rec;
      return case_rps(rec);
    };
    const auto run_plain = [&] {
      const CaseResult plain = RunCase(port, conns, reqs, mixed_issue);
      if (case_rps(plain) > case_rps(best_plain)) best_plain = plain;
      return case_rps(plain);
    };
    double rec_rps = 0.0;
    double plain_rps = 0.0;
    if (round % 2 == 0) {
      rec_rps = run_recorded();
      plain_rps = run_plain();
    } else {
      plain_rps = run_plain();
      rec_rps = run_recorded();
    }
    if (plain_rps > 0.0) ratios.push_back(rec_rps / plain_rps);
  }
  // A connection thread appends its journal frame after writing the
  // response, so the client side can return while the last few appends
  // are still in flight; Shutdown() joins those threads (it is
  // idempotent — the exit path calls it again) so the frame counts
  // below are final.
  server.Shutdown();
  (*recorder)->Close();
  std::sort(ratios.begin(), ratios.end());
  const double median_ratio =
      ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
  const double recorded_rps = case_rps(mixed_recorded);
  const double overhead_pct = (1.0 - median_ratio) * 100.0;
  std::printf("%-21s %8lld req %8.0f req/s   p50 %6.0f us   p99 %6.0f us"
              "   overhead %+.1f%%   frames %lld   dropped %lld\n",
              "mixed_recorded",
              static_cast<long long>(mixed_recorded.requests), recorded_rps,
              mixed_recorded.latency.p50, mixed_recorded.latency.p99,
              overhead_pct,
              static_cast<long long>((*recorder)->frames_written()),
              static_cast<long long>((*recorder)->frames_dropped()));
  report->AddServingCase(
      "mixed_recorded", mixed_recorded.wall_seconds, mixed_recorded.requests,
      {{"connections", static_cast<double>(conns)},
       {"errors", static_cast<double>(mixed_recorded.errors)},
       {"p50_us", mixed_recorded.latency.p50},
       {"p95_us", mixed_recorded.latency.p95},
       {"p99_us", mixed_recorded.latency.p99},
       {"overhead_pct", overhead_pct},
       {"frames_written",
        static_cast<double>((*recorder)->frames_written())},
       {"frames_dropped",
        static_cast<double>((*recorder)->frames_dropped())}});
  if (mixed_recorded.errors > 0) {
    std::fprintf(stderr, "case mixed_recorded had %lld request errors\n",
                 static_cast<long long>(mixed_recorded.errors));
    std::exit(1);
  }
  PrintRule();
  std::printf("server-side request_us over all cases: count %lld, "
              "p50 %.0f, p95 %.0f, p99 %.0f\n",
              static_cast<long long>(server_lat.count), server_lat.p50,
              server_lat.p95, server_lat.p99);

  const double mixed_rps = mixed.requests / mixed.wall_seconds;
  std::printf("mixed sustained %.0f req/s (floor %.0f) — %s\n", mixed_rps,
              kMinRequestsPerSec,
              mixed_rps >= kMinRequestsPerSec ? "ok" : "FAIL");
  PrintRule();
  server.Shutdown();
  if (mixed_rps < kMinRequestsPerSec) std::exit(1);
}

}  // namespace
}  // namespace cdpd

int main() {
  cdpd::bench_util::BenchReport report("serving");
  cdpd::Run(&report);
  report.Write();
  cdpd::bench_util::WriteObservabilityArtifacts();
  return 0;
}
