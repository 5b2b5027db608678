// The two serving workloads. Both drive a real advisor_server child
// over loopback TCP for the timed phase (end-to-end metrics) and, in
// the traced run, replay the same generated inputs in-process against
// AdvisorService and the layers under it (per-layer metrics).
//
//   hot_whatif  W = 10k statements; 2 closed-loop connections sending
//               80% WHATIF over 4 rotating specs, 10% RECOMMEND k=2
//               (answered from the resident solution) and 10% PING.
//   slide_1m    W = 1M statements; one connection ticks open-loop at a
//               fixed rate (INGEST of a 100-statement block, then
//               RECOMMEND k=2 over the slid window) while 2 more
//               connections send WHATIF open-loop at a fixed rate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "advisor/config_enumeration.h"
#include "common.h"
#include "common/rng.h"
#include "core/validator.h"
#include "index/index_def.h"
#include "server/advisor_service.h"
#include "server/client.h"
#include "workload/trace_io.h"

namespace perfbench {
namespace {

using cdpd::AdvisorClient;
using cdpd::AdvisorService;
using cdpd::Result;
using cdpd::ServerOp;

/// The four WHATIF specs every serving workload rotates through.
constexpr const char* kSpecs[] = {"a", "a;b", "c,d", "{}"};
constexpr size_t kNumSpecs = 4;
constexpr size_t kBlock = 100;  // Statements per DP stage and per tick.
constexpr int64_t kK = 2;
constexpr int kSetupReps = 5;  // Set-ups per untraced run (median).

/// The integer after `"key":` in a JSON answer, or -1.
int64_t JsonInt(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(json.c_str() + at + needle.size(), nullptr, 10);
}

template <typename F>
auto Timed(SpanLog* log, const char* name, std::vector<double>* us, F&& f) {
  SpanLog::Scope scope(log, name);
  const int64_t start = NowNs();
  auto result = f();
  us->push_back(NsToUs(NowNs() - start));
  return result;
}

std::string ErrorOf(const cdpd::Status& status, const char* what) {
  return std::string(what) + ": " + status.ToString();
}

/// The shape every serving workload shares: the advisor_server flags
/// and the in-process ServiceOptions that mirror them.
struct ServingShape {
  size_t window = 0;
  std::vector<std::string> ServerFlags() const {
    return {"--port", "0", "--window", std::to_string(window),
            "--block", std::to_string(kBlock), "--k", std::to_string(kK)};
  }
  cdpd::ServiceOptions ServiceOptions() const {
    cdpd::ServiceOptions options;
    options.window_statements = window;
    options.block_size = kBlock;
    options.k = kK;
    return options;
  }
};

void ShapeHeader(const ServingShape& shape, Report* report) {
  const cdpd::ServiceOptions options = shape.ServiceOptions();
  cdpd::ConfigEnumOptions enum_options;
  enum_options.max_indexes_per_config = options.max_indexes_per_config;
  enum_options.num_rows = options.rows;
  const size_t m =
      cdpd::EnumerateConfigurations(
          cdpd::MakePaperCandidateIndexes(options.schema), enum_options)
          ->size();
  report->Shape("W", std::to_string(shape.window));
  report->Shape("stages", std::to_string(shape.window / kBlock));
  report->Shape("m", std::to_string(m));
  report->Shape("k", std::to_string(kK));
}

/// Starts a server and fills its window through INGEST, `reps` times
/// (keeping the last server up), recording each set-up's wall time.
/// `warm` runs after the fill on the kept server's connection (the
/// warm-up requests that make the timed phase steady).
template <typename Warm>
std::optional<ServerProcess> SetUp(const Args& args, const ServingShape& shape,
                                   const std::vector<std::string>& fill,
                                   int reps, Report* report, Warm warm) {
  std::optional<ServerProcess> kept;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t start = NowNs();
    Result<ServerProcess> server =
        ServerProcess::Spawn(args.server_bin, shape.ServerFlags());
    if (!server.ok()) {
      report->Fail(ErrorOf(server.status(), "spawn"));
      return std::nullopt;
    }
    Result<AdvisorClient> client =
        AdvisorClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) {
      report->Fail(ErrorOf(client.status(), "connect"));
      return std::nullopt;
    }
    for (const std::string& batch : fill) {
      Result<std::string> ack = client->Ingest(batch);
      if (!ack.ok()) {
        report->Fail(ErrorOf(ack.status(), "fill"));
        return std::nullopt;
      }
    }
    if (!warm(&*client)) return std::nullopt;
    report->Add("setup_s", NsToS(NowNs() - start));
    if (rep + 1 < reps) {
      if (const cdpd::Status status = server->Stop(); !status.ok()) {
        report->Fail(ErrorOf(status, "stop"));
        return std::nullopt;
      }
    } else {
      kept.emplace(std::move(server).value());
    }
  }
  return kept;
}

/// Closes the timed phase: server CPU and peak RSS, then SHUTDOWN.
void Finish(ServerProcess* server, double cpu_before, int64_t requests,
            double wall_s, Report* report) {
  report->Set("server_cpu_s", server->CpuSeconds() - cpu_before);
  report->Set("peak_rss_mb", server->PeakRssMb());
  report->Set("requests", static_cast<double>(requests));
  report->Set("wall_s", wall_s);
  if (const cdpd::Status status = server->Stop(); !status.ok()) {
    report->Fail(ErrorOf(status, "stop"));
  }
}

bool CheckThreads(int threads, Report* report) {
  if (threads <= NumCpus()) return true;
  std::fprintf(stderr,
               "load generator needs %d threads but nproc is %d; refusing "
               "to run an overcommitted generator\n",
               threads, NumCpus());
  report->Fail("load generator threads exceed nproc");
  return false;
}

/// Per-connection results, merged after the join.
struct ThreadSamples {
  std::vector<double> whatif_us, recommend_us, ping_us;
  std::vector<double> whatif_rtt_us;  // From send; whatif_us is from due.
  std::vector<std::pair<int64_t, int64_t>> whatif_spans;  // [start, end) ns.
  std::vector<std::string> errors;  // Failed or wrong answers only.
  int64_t requests = 0;
  int64_t end_ns = 0;

  /// Counts one completed request; `error` non-empty marks it failed.
  void Complete(std::string error) {
    ++requests;
    if (!error.empty()) errors.push_back(std::move(error));
  }
};

/// Folds every connection's latencies and outcome counts into the report.
void Merge(const std::vector<ThreadSamples>& samples, Report* report) {
  for (const ThreadSamples& s : samples) {
    report->Append("whatif_us", s.whatif_us);
    report->Append("recommend_us", s.recommend_us);
    report->Append("ping_us", s.ping_us);
    report->Append("whatif_rtt_us", s.whatif_rtt_us);
    report->Attempted(s.requests);
    for (const std::string& e : s.errors) report->Fail(e);
  }
}

enum class HotOp : uint8_t { kWhatIf, kRecommend, kPing };

/// The closed-loop op sequence of hot_whatif connection `conn`:
/// 80% WHATIF, 10% RECOMMEND, 10% PING, drawn from the seed.
std::vector<HotOp> HotOps(uint64_t seed, int conn, size_t count) {
  cdpd::Rng rng(seed * 1000003u + static_cast<uint64_t>(conn) + 1);
  std::vector<HotOp> ops(count);
  for (HotOp& op : ops) {
    const uint64_t r = rng.NextBounded(100);
    op = r < 80 ? HotOp::kWhatIf : (r < 90 ? HotOp::kRecommend : HotOp::kPing);
  }
  return ops;
}

}  // namespace

int RunHotWhatIf(const Args& args, Report* report) {
  constexpr int kConns = 2;
  constexpr size_t kReplayRequests = 20'000;
  // A set-up takes ~20 ms and is bimodal (page-fault luck), so the
  // median needs many.
  constexpr int kHotSetupReps = 31;
  const ServingShape shape{10'000};
  if (!CheckThreads(kConns, report)) return 2;
  const cdpd::Schema schema = cdpd::MakePaperSchema();
  const std::vector<cdpd::BoundStatement> statements =
      GenerateW1(schema, shape.window, args.seed);
  const std::vector<std::string> fill = {
      ToSql(schema, statements, 0, statements.size())};
  ShapeHeader(shape, report);
  report->Shape("connections", std::to_string(kConns));
  report->Shape("mix",
                "closed loop: 80% WHATIF (4 specs), 10% RECOMMEND k=2, 10% "
                "PING; no INGEST after set-up");

  // The answer each spec must keep, byte for byte, all run long.
  std::vector<std::string> reference(kNumSpecs);
  auto warm = [&](AdvisorClient* client) {
    Result<std::string> solved = client->Recommend("k=2");
    if (!solved.ok()) {
      report->Fail(ErrorOf(solved.status(), "warm-up recommend"));
      return false;
    }
    for (size_t s = 0; s < kNumSpecs; ++s) {
      Result<std::string> answer = client->WhatIf(kSpecs[s]);
      if (!answer.ok()) {
        report->Fail(ErrorOf(answer.status(), "warm-up whatif"));
        return false;
      }
      if (!reference[s].empty() && reference[s] != *answer) {
        report->Fail("WHATIF answer differs across set-ups");
      }
      reference[s] = *answer;
    }
    return true;
  };
  std::optional<ServerProcess> server =
      SetUp(args, shape, fill, args.trace ? 1 : kHotSetupReps, report, warm);
  if (!server.has_value()) return 1;

  std::vector<std::vector<HotOp>> ops;
  std::vector<AdvisorClient> clients;
  for (int c = 0; c < kConns; ++c) {
    ops.push_back(HotOps(args.seed, c, 1 << 16));
    Result<AdvisorClient> client =
        AdvisorClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) {
      report->Fail(ErrorOf(client.status(), "connect"));
      return 1;
    }
    clients.push_back(std::move(client).value());
  }
  std::vector<ThreadSamples> samples(kConns);
  const double cpu_before = server->CpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      ThreadSamples& out = samples[c];
      AdvisorClient& client = clients[c];
      size_t whatifs = 0;
      for (size_t i = 0; NowNs() < deadline; ++i) {
        const HotOp op = ops[c][i % ops[c].size()];
        const int64_t t0 = NowNs();
        if (op == HotOp::kWhatIf) {
          const size_t spec = (whatifs++ + c) % kNumSpecs;
          Result<std::string> answer = client.WhatIf(kSpecs[spec]);
          out.whatif_us.push_back(NsToUs(NowNs() - t0));
          out.Complete(!answer.ok() ? ErrorOf(answer.status(), "whatif")
                       : *answer != reference[spec]
                           ? "WHATIF answer changed for spec " +
                                 std::string(kSpecs[spec])
                           : "");
        } else if (op == HotOp::kRecommend) {
          Result<std::string> answer = client.Recommend("k=2");
          out.recommend_us.push_back(NsToUs(NowNs() - t0));
          out.Complete(!answer.ok() ? ErrorOf(answer.status(), "recommend")
                       : answer->find("\"reused_resident\":true") ==
                               std::string::npos
                           ? "RECOMMEND was not served by resident reuse"
                           : "");
        } else {
          const cdpd::Status status = client.Ping();
          out.ping_us.push_back(NsToUs(NowNs() - t0));
          out.Complete(status.ok() ? "" : ErrorOf(status, "ping"));
        }
      }
      out.end_ns = NowNs();
    });
  }
  for (std::thread& t : threads) t.join();
  Merge(samples, report);
  int64_t requests = 0;
  int64_t end = start;
  for (const ThreadSamples& s : samples) {
    requests += s.requests;
    end = std::max(end, s.end_ns);
  }
  clients.clear();
  const double wall_s = NsToS(end - start);
  Finish(&*server, cpu_before, requests, wall_s, report);
  if (!args.trace) return 0;

  // Traced replay: connection 0's request sequence, in-process.
  AdvisorService service(shape.ServiceOptions());
  for (const std::string& batch : fill) {
    if (!service.IngestSql(batch).ok()) report->Fail("replay fill");
  }
  cdpd::RecommendRequest request;
  request.k = kK;
  if (!service.RecommendNow(request).ok()) report->Fail("replay warm-up");
  std::vector<cdpd::Configuration> configs;
  for (const char* spec : kSpecs) {
    configs.push_back(service.ParseConfigSpec(spec).value());
  }
  SpanLog log;
  cdpd::Tracer tracer;
  const cdpd::RequestContext ctx{"", &tracer};
  std::vector<double> handle_whatif, config_cost, handle_recommend, encode,
      handle_ping;  // handle_ping feeds only the span table.
  const int64_t replay_start = NowNs();
  size_t whatifs = 0;
  const size_t replayed = std::min<size_t>(kReplayRequests, requests);
  for (size_t i = 0; i < replayed; ++i) {
    SpanLog::Scope request_span(&log, "replay.request");
    const HotOp op = ops[0][i % ops[0].size()];
    if (op == HotOp::kWhatIf) {
      const size_t spec = whatifs++ % kNumSpecs;
      Result<std::string> answer =
          Timed(&log, "service.handle.whatif", &handle_whatif, [&] {
            return service.Handle(static_cast<uint8_t>(ServerOp::kWhatIf),
                                  kSpecs[spec], ctx);
          });
      report->Outcome(answer.ok() && *answer == reference[spec]
                          ? ""
                          : "replayed WHATIF differs from the server's");
      Timed(&log, "whatif.config_cost", &config_cost,
            [&] { return service.WhatIfConfig(configs[spec]); });
    } else if (op == HotOp::kRecommend) {
      Result<std::string> answer =
          Timed(&log, "service.handle.recommend", &handle_recommend, [&] {
            return service.Handle(static_cast<uint8_t>(ServerOp::kRecommend),
                                  "k=2", ctx);
          });
      report->Outcome(answer.ok() && answer->find("\"reused_resident\":true") !=
                                         std::string::npos
                          ? ""
                          : "replayed RECOMMEND was not reused");
      Result<cdpd::RecommendAnswer> resident = service.RecommendNow(request);
      if (resident.ok()) {
        Timed(&log, "service.encode_recommend", &encode,
              [&] { return resident->ToJson(schema); });
      }
    } else {
      Result<std::string> answer =
          Timed(&log, "service.handle.ping", &handle_ping, [&] {
            return service.Handle(static_cast<uint8_t>(ServerOp::kPing), "",
                                  ctx);
          });
      report->Outcome(answer.ok() ? "" : "replayed PING failed");
    }
  }
  report->Set("trace.replay_wall_s", NsToS(NowNs() - replay_start));
  report->Set("trace.replay_units", static_cast<double>(replayed));
  report->Set("trace.untraced_wall_s", wall_s);
  report->Set("trace.untraced_units", static_cast<double>(requests));
  report->Append("layer.handle_whatif_us", handle_whatif);
  report->Append("layer.config_cost_us", config_cost);
  report->Append("layer.handle_recommend_us", handle_recommend);
  report->Append("layer.encode_recommend_us", encode);
  log.FoldInto(report);
  SpanLog::FoldTracer(tracer, report);
  return 0;
}

int RunSlide(const Args& args, Report* report) {
  constexpr int kWhatIfConns = 2;
  constexpr double kTickRate = 4.0;  // Ticks per second, open loop.
  // WHATIFs per second per connection, open loop and well below what the
  // server sustains beside the ticks, so the wait on the window mutex
  // shows as WHATIF latency. In a closed loop a slower INGEST would also
  // mean fewer WHATIFs, and the throughput would move twice as far.
  constexpr double kWhatIfRate = 25.0;
  constexpr size_t kFillBatch = 250'000;
  constexpr size_t kReplayTicks = 40;
  // Untimed ticks on the kept server before the timed phase: the first
  // few slides after a fill run slower (fresh pages, cold cost cache).
  constexpr size_t kWarmTicks = 8;
  const ServingShape shape{1'000'000};
  if (!CheckThreads(kWhatIfConns + 1, report)) return 2;
  const size_t load_ticks =
      static_cast<size_t>(std::ceil(args.seconds * kTickRate));
  const size_t ticks = std::max(kWarmTicks + load_ticks, kReplayTicks);
  const cdpd::Schema schema = cdpd::MakePaperSchema();
  const std::vector<cdpd::BoundStatement> statements =
      GenerateW1(schema, shape.window + ticks * kBlock, args.seed);
  std::vector<std::string> fill;
  for (size_t at = 0; at < shape.window; at += kFillBatch) {
    fill.push_back(ToSql(schema, statements, at,
                         std::min(at + kFillBatch, shape.window)));
  }
  std::vector<std::string> tick_sql;
  for (size_t t = 0; t < ticks; ++t) {
    const size_t begin = shape.window + t * kBlock;
    tick_sql.push_back(ToSql(schema, statements, begin, begin + kBlock));
  }
  ShapeHeader(shape, report);
  report->Shape("connections", std::to_string(kWhatIfConns + 1));
  report->Shape("tick_rate_per_s", std::to_string(kTickRate));
  report->Shape("whatif_rate_per_s_per_connection",
                std::to_string(kWhatIfRate));
  report->Shape("mix",
                "open-loop tick: INGEST of 100 statements then RECOMMEND "
                "k=2; 2 open-loop WHATIF connections");

  auto warm = [&](AdvisorClient* client) {
    Result<std::string> solved = client->Recommend("k=2");
    if (!solved.ok()) {
      report->Fail(ErrorOf(solved.status(), "warm-up recommend"));
      return false;
    }
    for (const char* spec : kSpecs) {
      if (!client->WhatIf(spec).ok()) {
        report->Fail("warm-up whatif");
        return false;
      }
    }
    return true;
  };
  std::optional<ServerProcess> server =
      SetUp(args, shape, fill, args.trace ? 1 : kSetupReps, report, warm);
  if (!server.has_value()) return 1;

  std::vector<AdvisorClient> clients;
  for (int c = 0; c < kWhatIfConns + 1; ++c) {
    Result<AdvisorClient> client =
        AdvisorClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) {
      report->Fail(ErrorOf(client.status(), "connect"));
      return 1;
    }
    clients.push_back(std::move(client).value());
  }
  for (size_t t = 0; t < kWarmTicks; ++t) {
    if (!clients[0].Ingest(tick_sql[t]).ok() ||
        !clients[0].Recommend("k=2").ok()) {
      report->Fail("warm-up tick");
      return 1;
    }
  }
  // samples[0] is the ticking connection, the rest send WHATIF.
  std::vector<ThreadSamples> samples(kWhatIfConns + 1);
  std::vector<double> ingest_us, late_us;
  std::vector<std::pair<int64_t, int64_t>> ingest_spans;
  const double cpu_before = server->CpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  std::thread ticker([&] {
    ThreadSamples& out = samples[0];
    AdvisorClient& client = clients[0];
    for (size_t t = 0; t < load_ticks; ++t) {
      const int64_t due = start + static_cast<int64_t>(t * 1e9 / kTickRate);
      if (due >= deadline) break;
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::nanoseconds(due)));
      const int64_t sent = NowNs();
      late_us.push_back(NsToUs(sent - due));
      Result<std::string> ack = client.Ingest(tick_sql[kWarmTicks + t]);
      const int64_t done = NowNs();
      ingest_us.push_back(NsToUs(done - due));
      ingest_spans.emplace_back(sent, done);
      if (!ack.ok()) {
        out.Complete(ErrorOf(ack.status(), "ingest"));
        continue;
      }
      const bool ack_ok =
          JsonInt(*ack, "accepted") == static_cast<int64_t>(kBlock) &&
          JsonInt(*ack, "window_statements") ==
              static_cast<int64_t>(shape.window);
      out.Complete(ack_ok ? "" : "INGEST ack has the wrong shape");
      const int64_t epoch = JsonInt(*ack, "epoch");
      const int64_t rec_start = NowNs();
      Result<std::string> answer = client.Recommend("k=2");
      out.recommend_us.push_back(NsToUs(NowNs() - rec_start));
      const int64_t changes = answer.ok() ? JsonInt(*answer, "changes") : -1;
      out.Complete(!answer.ok() ? ErrorOf(answer.status(), "recommend")
                   : JsonInt(*answer, "epoch") != epoch
                       ? "RECOMMEND does not carry its tick's epoch"
                   : changes < 0 || changes > kK ? "RECOMMEND exceeds k changes"
                                                 : "");
    }
    out.end_ns = NowNs();
  });
  std::vector<std::thread> threads;
  for (int c = 0; c < kWhatIfConns; ++c) {
    threads.emplace_back([&, c] {
      ThreadSamples& out = samples[c + 1];
      AdvisorClient& client = clients[c + 1];
      // The connections' schedules interleave, half a period apart.
      const double offset_ns = 1e9 / kWhatIfRate * c / kWhatIfConns;
      for (size_t i = 0;; ++i) {
        const int64_t due =
            start + static_cast<int64_t>(offset_ns + i * 1e9 / kWhatIfRate);
        if (due >= deadline) break;
        std::this_thread::sleep_until(Clock::time_point(
            std::chrono::nanoseconds(due)));
        const int64_t t0 = NowNs();
        Result<std::string> answer =
            client.WhatIf(kSpecs[(i + c) % kNumSpecs]);
        const int64_t t1 = NowNs();
        out.whatif_us.push_back(NsToUs(t1 - due));
        out.whatif_rtt_us.push_back(NsToUs(t1 - t0));
        out.whatif_spans.emplace_back(t0, t1);
        out.Complete(!answer.ok() ? ErrorOf(answer.status(), "whatif")
                     : JsonInt(*answer, "segments") !=
                             static_cast<int64_t>(shape.window / kBlock)
                         ? "WHATIF priced the wrong window"
                         : "");
      }
      out.end_ns = NowNs();
    });
  }
  ticker.join();
  for (std::thread& t : threads) t.join();
  Merge(samples, report);
  int64_t requests = 0;
  int64_t end = start;
  std::vector<double> overlap_us;
  for (const ThreadSamples& s : samples) {
    requests += s.requests;
    end = std::max(end, s.end_ns);
    // A WHATIF overlapped an INGEST when their client-side intervals
    // intersect (ingest_spans is in send order, hence sorted).
    for (size_t i = 0; i < s.whatif_spans.size(); ++i) {
      const auto [w0, w1] = s.whatif_spans[i];
      auto it = std::lower_bound(
          ingest_spans.begin(), ingest_spans.end(), w1,
          [](const std::pair<int64_t, int64_t>& span, int64_t t) {
            return span.first < t;
          });
      if (it != ingest_spans.begin() && std::prev(it)->second > w0) {
        overlap_us.push_back(s.whatif_us[i]);
      }
    }
  }
  report->Append("ingest_us", ingest_us);
  report->Append("ingest_late_us", late_us);
  report->Append("whatif_overlap_us", overlap_us);
  report->Set("tick_period_us", 1e6 / kTickRate);
  clients.clear();
  const double wall_s = NsToS(end - start);
  Finish(&*server, cpu_before, requests, wall_s, report);
  if (!args.trace) return 0;

  // Traced replay of the first kReplayTicks ticks, in-process. Even
  // ticks call the typed entry points (IngestSql, RecommendNow) so the
  // breakdown can be taken apart; odd ticks go through Handle().
  AdvisorService service(shape.ServiceOptions());
  const cdpd::ServiceOptions& options = service.options();
  std::vector<cdpd::BoundStatement> mirror;  // What the window holds.
  mirror.reserve(shape.window + kReplayTicks * kBlock);
  for (const std::string& batch : fill) {
    Result<cdpd::Workload> parsed = cdpd::ReadTrace(schema, batch);
    if (!parsed.ok() || !service.IngestSql(batch).ok()) {
      report->Fail("replay fill");
      return 1;
    }
    for (cdpd::BoundStatement& s : parsed->statements) {
      mirror.push_back(std::move(s));
    }
  }
  cdpd::RecommendRequest request;
  request.k = kK;
  if (!service.RecommendNow(request).ok()) report->Fail("replay warm-up");
  const cdpd::CostModel model(schema, options.rows, options.domain_size,
                              options.params);
  cdpd::ConfigEnumOptions enum_options;
  enum_options.max_indexes_per_config = options.max_indexes_per_config;
  enum_options.num_rows = model.num_rows();
  const std::vector<cdpd::Configuration> candidates =
      cdpd::EnumerateConfigurations(
          cdpd::MakePaperCandidateIndexes(schema), enum_options)
          .value();
  std::vector<cdpd::Configuration> spec_configs;
  for (const char* spec : kSpecs) {
    spec_configs.push_back(service.ParseConfigSpec(spec).value());
  }
  SpanLog log;
  std::vector<double> read_trace, ingest_sql, ingest_locked, handle_ingest,
      handle_whatif, config_cost, recommend_now, handle_recommend, encode,
      engine_build, validate, precompute, dp, dp_kernel, solve, relaxations,
      chunks,
      peak_bytes, costings, cache_probes, cache_hit_rate, dp_cells_per_s;
  const size_t stages = shape.window / kBlock;
  const int64_t replay_start = NowNs();
  for (size_t t = 0; t < kReplayTicks; ++t) {
    SpanLog::Scope tick_span(&log, "replay.tick");
    const std::string& sql = tick_sql[t];
    Result<cdpd::Workload> parsed = Timed(
        &log, "sql.read_trace", &read_trace,
        [&] { return cdpd::ReadTrace(schema, sql); });
    if (!parsed.ok()) {
      report->Fail("replay read_trace");
      return 1;
    }
    for (cdpd::BoundStatement& s : parsed->statements) {
      mirror.push_back(std::move(s));
    }
    cdpd::Tracer tracer;
    const cdpd::RequestContext ctx{"", &tracer};
    const bool typed = t % 2 == 0;
    if (typed) {
      Result<cdpd::IngestAck> ack = Timed(
          &log, "service.ingest_sql", &ingest_sql,
          [&] { return service.IngestSql(sql); });
      report->Outcome(ack.ok() ? "" : "replayed INGEST failed");
      ingest_locked.push_back(ingest_sql.back() - read_trace.back());
    } else {
      Result<std::string> ack =
          Timed(&log, "service.handle.ingest", &handle_ingest, [&] {
            return service.Handle(static_cast<uint8_t>(ServerOp::kIngest), sql,
                                  ctx);
          });
      report->Outcome(ack.ok() ? "" : "replayed INGEST failed");
    }
    for (size_t s = 0; s < kNumSpecs; ++s) {
      Result<std::string> answer =
          Timed(&log, "service.handle.whatif", &handle_whatif, [&] {
            return service.Handle(static_cast<uint8_t>(ServerOp::kWhatIf),
                                  kSpecs[s], ctx);
          });
      report->Outcome(answer.ok() ? "" : "replayed WHATIF failed");
      Timed(&log, "whatif.config_cost", &config_cost,
            [&] { return service.WhatIfConfig(spec_configs[s]); });
    }
    if (typed) {
      Result<cdpd::RecommendAnswer> answer =
          Timed(&log, "service.recommend_now", &recommend_now,
                [&] { return service.RecommendNow(request, &tracer); });
      if (!answer.ok()) {
        report->Fail("replayed RECOMMEND failed");
        return 1;
      }
      Timed(&log, "service.encode_recommend", &encode,
            [&] { return answer->ToJson(schema); });
      // The same window, rebuilt outside the service: the WhatIfEngine
      // constructor INGEST runs under the lock, and the validator pass
      // RECOMMEND runs after the solve.
      const std::span<const cdpd::BoundStatement> window(
          mirror.data() + mirror.size() - shape.window, shape.window);
      std::unique_ptr<cdpd::WhatIfEngine> engine =
          Timed(&log, "whatif.engine_build", &engine_build, [&] {
            return std::make_unique<cdpd::WhatIfEngine>(
                &model, window, cdpd::SegmentFixed(shape.window, kBlock));
          });
      cdpd::DesignProblem problem;
      problem.what_if = engine.get();
      problem.candidates = candidates;
      const cdpd::Status valid =
          Timed(&log, "validator.validate", &validate, [&] {
            return cdpd::ValidateSchedule(problem, answer->schedule, kK);
          });
      report->Outcome(valid.ok() ? "" : "RECOMMEND schedule fails validation: " +
                                            valid.ToString());
      const cdpd::SolveStats& stats = answer->stats;
      solve.push_back(stats.wall_seconds * 1e6);
      dp.push_back(solve.back() - PrecomputeUs(tracer));
      relaxations.push_back(static_cast<double>(stats.relaxations));
      chunks.push_back(static_cast<double>(stats.segment_chunks));
      peak_bytes.push_back(static_cast<double>(stats.peak_bytes_total));
      costings.push_back(static_cast<double>(stats.costings));
      const double probes =
          static_cast<double>(stats.cost_cache_hits + stats.cost_cache_misses);
      cache_probes.push_back(probes);
      cache_hit_rate.push_back(
          probes > 0 ? static_cast<double>(stats.cost_cache_hits) / probes
                     : 0.0);
    } else {
      Result<std::string> answer =
          Timed(&log, "service.handle.recommend", &handle_recommend, [&] {
            return service.Handle(static_cast<uint8_t>(ServerOp::kRecommend),
                                  "k=2", ctx);
          });
      const int64_t changes = answer.ok() ? JsonInt(*answer, "changes") : -1;
      report->Outcome(changes >= 0 && changes <= kK
                          ? ""
                          : "replayed RECOMMEND failed or exceeds k");
    }
    precompute.push_back(PrecomputeUs(tracer));
    dp_kernel.push_back(DpKernelUs(tracer));
    if (dp_kernel.back() > 0) {
      dp_cells_per_s.push_back(static_cast<double>(stages) * (kK + 1) *
                               static_cast<double>(candidates.size()) /
                               (dp_kernel.back() / 1e6));
    }
    SpanLog::FoldTracer(tracer, report);
  }
  report->Set("trace.replay_wall_s", NsToS(NowNs() - replay_start));
  report->Set("trace.replay_units", static_cast<double>(kReplayTicks));
  report->Set("trace.untraced_wall_s", wall_s);
  report->Set("trace.untraced_units", static_cast<double>(ingest_us.size()));
  report->Append("layer.read_trace_us", read_trace);
  report->Append("layer.ingest_sql_us", ingest_sql);
  report->Append("layer.ingest_locked_us", ingest_locked);
  report->Append("layer.handle_ingest_us", handle_ingest);
  report->Append("layer.handle_whatif_us", handle_whatif);
  report->Append("layer.config_cost_us", config_cost);
  report->Append("layer.recommend_now_us", recommend_now);
  report->Append("layer.handle_recommend_us", handle_recommend);
  report->Append("layer.encode_recommend_us", encode);
  report->Append("layer.engine_build_us", engine_build);
  report->Append("layer.validate_us", validate);
  report->Append("layer.precompute_us", precompute);
  report->Append("layer.dp_us", dp);
  report->Append("layer.dp_kernel_us", dp_kernel);
  report->Append("layer.solve_us", solve);
  report->Append("layer.relaxations", relaxations);
  report->Append("layer.segment_chunks", chunks);
  report->Append("layer.peak_table_bytes", peak_bytes);
  report->Append("layer.costings_per_solve", costings);
  report->Append("layer.cache_probes", cache_probes);
  report->Append("layer.cache_hit_rate", cache_hit_rate);
  report->Append("layer.dp_cells_per_s", dp_cells_per_s);
  report->Set("layer.read_trace_kstmt", kBlock / 1000.0);
  log.FoldInto(report);
  return 0;
}

}  // namespace perfbench
