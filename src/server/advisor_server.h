#ifndef CDPD_SERVER_ADVISOR_SERVER_H_
#define CDPD_SERVER_ADVISOR_SERVER_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "server/advisor_service.h"

namespace cdpd {

/// Transport knobs of the advisor server.
struct ServerOptions {
  /// Loopback by default: the protocol is unauthenticated, so the
  /// server should not listen on a routable interface unless the
  /// deployment supplies its own perimeter.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is reported by port().
  int port = 0;
  int backlog = 64;
};

/// The advisor's TCP front end: accepts connections on a loopback
/// socket and speaks the length-prefixed frame protocol of
/// server/frame.h, dispatching each request frame to an AdvisorService
/// (borrowed — must outlive the server) on a per-connection thread.
/// One request, one response; requests on one connection are
/// sequential, concurrency comes from multiple connections.
///
/// Lifecycle: Start() binds and spawns the accept thread; Wait()
/// blocks until a SHUTDOWN frame (or Shutdown() from another thread)
/// stops the server; the destructor shuts down and joins. A SHUTDOWN
/// request is acked first, then the listener closes, in-flight solves
/// are cancelled through the service's cancel token, and every
/// connection thread is joined.
///
/// Per-request metrics land in the service registry: the
/// "server.requests" / "server.request_errors" counters, the
/// "server.inflight_requests" gauge, a per-opcode "server.op.<name>"
/// counter and "server.op_us.<name>" latency histogram, and the
/// overall "server.request_us" histogram (p50/p95/p99 via
/// MetricsSnapshot). Latency is recorded *after* the response write
/// completes, so it covers the full server-observed request.
///
/// Request ids: a frame whose tag carries kRequestIdFlag prefixes its
/// payload with an "id\n" header; the server echoes the id on the
/// response (same flag, same header) and stamps it into every log
/// line, the latency histograms' exemplars, and the slow-log entry
/// with its request-scoped span tree (parse → solve → respond).
/// Unflagged frames round-trip bit-identically to the pre-id protocol.
class AdvisorServer {
 public:
  /// `service` is borrowed and must outlive the server.
  explicit AdvisorServer(AdvisorService* service) : service_(service) {}
  AdvisorServer(const AdvisorServer&) = delete;
  AdvisorServer& operator=(const AdvisorServer&) = delete;
  ~AdvisorServer();

  /// Binds, listens, and spawns the accept thread. Fails with Internal
  /// on socket errors (port in use, no permission).
  Status Start(const ServerOptions& options = {});

  /// The bound port (the ephemeral port when options.port was 0); 0
  /// before Start().
  int port() const { return port_; }

  /// Blocks until the server has stopped (SHUTDOWN frame or
  /// Shutdown()).
  void Wait();

  /// Stops accepting, cancels in-flight solves, unblocks connection
  /// reads, and joins every thread. Idempotent; safe from any thread
  /// (including a connection handler, via the deferred self-join in
  /// Wait()).
  void Shutdown();

  /// The non-blocking half of Shutdown(): flips the stop flag, cancels
  /// solves, closes the listener, and unblocks connection reads —
  /// without joining anything, so it is safe from a connection handler
  /// and from a signal watcher while another thread sits in Wait().
  void RequestStop();

 private:
  /// One accepted connection: its socket, the thread serving it, and a
  /// completion flag the accept loop polls so finished threads are
  /// joined during operation rather than hoarding one mapped stack per
  /// past connection until shutdown.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    int fd;
    std::atomic<bool> done{false};
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// Joins and frees every connection whose handler has finished.
  /// Called by the accept loop before each accept.
  void ReapFinished();

  /// Per-opcode request counter and latency histogram, indexed by
  /// BaseTag(opcode) and resolved on the opcode's first request.
  struct OpMetrics {
    LazyMetric<Counter> requests;
    LazyMetric<Histogram> latency_us;
  };

  AdvisorService* service_;
  std::array<OpMetrics, 128> op_metrics_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::vector<int> open_fds_;
  /// Serializes Wait()/Shutdown() joins (either may be called from the
  /// main thread and the destructor).
  std::mutex join_mu_;
};

}  // namespace cdpd

#endif  // CDPD_SERVER_ADVISOR_SERVER_H_
