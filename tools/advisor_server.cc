// The resident advisor: a long-lived server that keeps the catalog, a
// solver thread pool, a metrics registry and the last solution in
// memory, and serves INGEST / WHATIF / RECOMMEND / STATS / SHUTDOWN
// over the length-prefixed frame protocol of src/server/frame.h (see
// docs/serving.md).
//
//   advisor_server [--port N] [--host A.B.C.D] [--http-port N]
//                  [--rows N] [--block N] [--k N] [--window N]
//                  [--threads N] [--deadline-ms N]
//                  [--memory-limit-bytes N] [--slowlog-n N]
//                  [--record PATH] [--record-ring N]
//                  [--record-segment-bytes N] [--postmortem-dir DIR]
//
// Prints "listening on <host>:<port>" once ready (scripts scrape the
// port when --port 0 picked an ephemeral one) and, with --http-port,
// "http listening on <host>:<port>" for the observability plane
// (/metrics, /healthz, /readyz, /varz, /slowlog, /trace?id=,
// /recorder), then serves until a SHUTDOWN frame arrives.
//
// With --record, every served request is journaled to
// <PATH>.000000, ... (replayable with advisor_replay); with
// --postmortem-dir, SIGTERM/SIGINT and the first failed request each
// flush a postmortem bundle before the server winds down.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "common/thread_pool.h"
#include "server/advisor_server.h"
#include "server/http_endpoint.h"
#include "server/recorder.h"

using namespace cdpd;

namespace {

struct ServerCliArgs {
  std::string host = "127.0.0.1";
  int64_t port = 0;
  int64_t http_port = -1;  // < 0 = no observability listener.
  int64_t rows = 250'000;
  int64_t block = 100;
  int64_t k = 2;  // < 0 = unconstrained default.
  int64_t window = 10'000;
  int64_t threads = 0;
  int64_t deadline_ms = -1;
  int64_t memory_limit_bytes = -1;
  int64_t slowlog_n = 32;
  std::string record;  // Journal base path; empty = no recording.
  int64_t record_ring = 4096;
  int64_t record_segment_bytes = 64ll << 20;
  std::string postmortem_dir;  // Empty = no bundles.
  bool help = false;
};

void PrintHelp(std::FILE* out) {
  std::fprintf(out,
      "usage: advisor_server [flags]\n"
      "\n"
      "Serves the dynamic physical design advisor over a loopback TCP\n"
      "socket (protocol: docs/serving.md; client: advisor_client).\n"
      "\n"
      "  --host A.B.C.D    listen address (default 127.0.0.1)\n"
      "  --port N          listen port (0 = ephemeral; the bound port\n"
      "                    is printed on the 'listening on' line)\n"
      "  --http-port N     also serve the HTTP observability plane on\n"
      "                    this port (0 = ephemeral, printed on the\n"
      "                    'http listening on' line): /metrics /healthz\n"
      "                    /readyz /varz /slowlog /trace?id= /recorder\n"
      "                    (omit the flag for no HTTP listener)\n"
      "  --rows N          table rows assumed by the cost model\n"
      "  --block N         statements per advisor segment (default 100)\n"
      "  --k N             default change bound (N < 0 = unconstrained;\n"
      "                    RECOMMEND requests can override per call)\n"
      "  --window N        sliding-window cap in statements (0 = keep\n"
      "                    everything; default 10000)\n"
      "  --threads N       solver pool workers (0 = hardware default,\n"
      "                    1 = serial; at most 1024)\n"
      "  --deadline-ms N   default per-request solve deadline\n"
      "  --memory-limit-bytes N\n"
      "                    default per-request solver memory budget\n"
      "  --slowlog-n N     slowest-request entries GET /slowlog keeps\n"
      "                    (default 32; must be positive)\n"
      "  --record PATH     journal every served request to PATH.000000,\n"
      "                    PATH.000001, ... (replay: advisor_replay)\n"
      "  --record-ring N   in-memory frames buffered between the hot\n"
      "                    path and the journal writer (default 4096;\n"
      "                    overflow drops frames, never blocks serving)\n"
      "  --record-segment-bytes N\n"
      "                    rotate journal segments at this size\n"
      "                    (default 64 MiB)\n"
      "  --postmortem-dir DIR\n"
      "                    flush a postmortem bundle (varz, slowlog,\n"
      "                    metrics, journal tail) to DIR/shutdown on\n"
      "                    SIGTERM/SIGINT and to DIR/failure on the\n"
      "                    first failed request\n"
      "  --help            this text\n");
}

bool ParseInt(const char* text, int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = static_cast<int64_t>(value);
  return true;
}

bool ParseArgs(int argc, char** argv, ServerCliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](int64_t* out) {
      return i + 1 < argc && ParseInt(argv[++i], out);
    };
    if (arg == "--host") {
      if (i + 1 >= argc) return false;
      args->host = argv[++i];
    } else if (arg == "--port") {
      if (!next(&args->port) || args->port < 0 || args->port > 65535) {
        return false;
      }
    } else if (arg == "--http-port") {
      if (!next(&args->http_port) || args->http_port < 0 ||
          args->http_port > 65535) {
        return false;
      }
    } else if (arg == "--rows") {
      if (!next(&args->rows) || args->rows <= 0) return false;
    } else if (arg == "--block") {
      if (!next(&args->block) || args->block <= 0) return false;
    } else if (arg == "--k") {
      if (!next(&args->k)) return false;
    } else if (arg == "--window") {
      if (!next(&args->window) || args->window < 0) return false;
    } else if (arg == "--threads") {
      if (!next(&args->threads) || args->threads < 0 ||
          args->threads > cdpd::ThreadPool::kMaxThreads) {
        return false;
      }
    } else if (arg == "--deadline-ms") {
      if (!next(&args->deadline_ms) || args->deadline_ms < 0) return false;
    } else if (arg == "--memory-limit-bytes") {
      if (!next(&args->memory_limit_bytes) || args->memory_limit_bytes <= 0) {
        return false;
      }
    } else if (arg == "--slowlog-n") {
      if (!next(&args->slowlog_n) || args->slowlog_n <= 0) return false;
    } else if (arg == "--record") {
      if (i + 1 >= argc) return false;
      args->record = argv[++i];
      if (args->record.empty()) return false;
    } else if (arg == "--record-ring") {
      if (!next(&args->record_ring) || args->record_ring <= 0) return false;
    } else if (arg == "--record-segment-bytes") {
      if (!next(&args->record_segment_bytes) ||
          args->record_segment_bytes <= 0) {
        return false;
      }
    } else if (arg == "--postmortem-dir") {
      if (i + 1 >= argc) return false;
      args->postmortem_dir = argv[++i];
      if (args->postmortem_dir.empty()) return false;
    } else if (arg == "--help" || arg == "-h") {
      args->help = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

#if !defined(_WIN32)
// Self-pipe: the only async-signal-safe thing the handler does is
// write one byte; a watcher thread does the real work (postmortem
// bundle, journal flush, server stop) in normal context.
int g_signal_pipe[2] = {-1, -1};

void HandleStopSignal(int) {
  const char byte = 's';
  (void)!::write(g_signal_pipe[1], &byte, 1);
}
#endif

}  // namespace

int main(int argc, char** argv) {
  ServerCliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintHelp(stderr);
    return 2;
  }
  if (args.help) {
    PrintHelp(stdout);
    return 0;
  }

  ServiceOptions service_options;
  service_options.rows = args.rows;
  service_options.block_size = static_cast<size_t>(args.block);
  if (args.k >= 0) {
    service_options.k = args.k;
  } else {
    service_options.k.reset();
  }
  service_options.window_statements = static_cast<size_t>(args.window);
  service_options.num_threads = static_cast<int>(args.threads);
  if (args.deadline_ms >= 0) {
    service_options.default_deadline =
        std::chrono::milliseconds(args.deadline_ms);
  }
  if (args.memory_limit_bytes > 0) {
    service_options.default_memory_limit_bytes = args.memory_limit_bytes;
  }
  service_options.slow_log_capacity = static_cast<size_t>(args.slowlog_n);
  service_options.postmortem_dir = args.postmortem_dir;
  if (const Status status = service_options.Validate(); !status.ok()) {
    std::fprintf(stderr, "invalid options: %s\n", status.ToString().c_str());
    return 2;
  }

  AdvisorService service(std::move(service_options));

  std::unique_ptr<Recorder> recorder;
  if (!args.record.empty()) {
    Recorder::Options recorder_options;
    recorder_options.path = args.record;
    recorder_options.ring_capacity = static_cast<size_t>(args.record_ring);
    recorder_options.segment_max_bytes = args.record_segment_bytes;
    JournalMeta& meta = recorder_options.meta;
    meta.rows = service.options().rows;
    meta.domain_size = service.options().domain_size;
    meta.block_size = static_cast<int64_t>(service.options().block_size);
    meta.window_statements =
        static_cast<int64_t>(service.options().window_statements);
    meta.k = service.options().k;
    meta.method =
        std::string(OptimizerMethodToString(service.options().method));
    meta.max_indexes_per_config = service.options().max_indexes_per_config;
    Result<std::unique_ptr<Recorder>> opened =
        Recorder::Open(std::move(recorder_options), service.registry());
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot start the recorder: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    recorder = std::move(opened).value();
    service.set_recorder(recorder.get());
  }

  AdvisorServer server(&service);
  ListenOptions server_options;
  server_options.host = args.host;
  server_options.port = static_cast<int>(args.port);
  if (const Status status = server.Start(server_options); !status.ok()) {
    std::fprintf(stderr, "cannot start: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("listening on %s:%d\n", args.host.c_str(), server.port());
  std::unique_ptr<HttpEndpoint> http;
  if (args.http_port >= 0) {
    http = std::make_unique<HttpEndpoint>(&service);
    ListenOptions http_options;
    http_options.host = args.host;
    http_options.port = static_cast<int>(args.http_port);
    if (const Status status = http->Start(http_options); !status.ok()) {
      std::fprintf(stderr, "cannot start the observability endpoint: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("http listening on %s:%d\n", args.host.c_str(), http->port());
  }
  if (recorder != nullptr) {
    std::printf("recording to %s\n", recorder->path().c_str());
  }
  std::fflush(stdout);

#if !defined(_WIN32)
  std::thread signal_watcher;
  if (::pipe(g_signal_pipe) == 0) {
    struct sigaction action {};
    action.sa_handler = HandleStopSignal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    signal_watcher = std::thread([&] {
      for (;;) {
        char byte = 0;
        const ssize_t n = ::read(g_signal_pipe[0], &byte, 1);
        if (n < 0 && errno == EINTR) continue;
        if (n != 1 || byte == 'q') return;
        // A stop signal: capture the postmortem while the metrics and
        // slow log still describe live traffic, make the journal
        // durable, then let the server wind down.
        if (!args.postmortem_dir.empty()) {
          const Status status = WritePostmortemBundle(
              &service, recorder.get(), args.postmortem_dir + "/shutdown",
              "stop signal (SIGTERM/SIGINT)");
          if (!status.ok()) {
            std::fprintf(stderr, "postmortem bundle failed: %s\n",
                         status.ToString().c_str());
          }
        }
        if (recorder != nullptr) (void)recorder->Flush();
        server.RequestStop();
      }
    });
  }
#endif

  server.Wait();
  if (http != nullptr) http->Shutdown();

#if !defined(_WIN32)
  if (signal_watcher.joinable()) {
    const char quit = 'q';
    (void)!::write(g_signal_pipe[1], &quit, 1);
    signal_watcher.join();
  }
  for (int& fd : g_signal_pipe) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
#endif

  if (recorder != nullptr) {
    service.set_recorder(nullptr);
    recorder->Close();
  }
  std::printf("shut down after %lld requests\n",
              static_cast<long long>(
                  service.registry()->Snapshot().CounterValue(
                      "server.requests")));
  return 0;
}
