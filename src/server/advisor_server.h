#ifndef CDPD_SERVER_ADVISOR_SERVER_H_
#define CDPD_SERVER_ADVISOR_SERVER_H_

#include <array>

#include "common/metrics.h"
#include "common/result.h"
#include "server/advisor_service.h"
#include "server/listener.h"

namespace cdpd {

/// The advisor's TCP front end: the frame-protocol handler behind a
/// Listener (server/listener.h, one thread per connection). It speaks
/// the length-prefixed frame protocol of server/frame.h, dispatching
/// each request frame to an AdvisorService (borrowed — must outlive
/// the server). One request, one response; requests on one connection
/// are sequential, concurrency comes from multiple connections.
///
/// Lifecycle: Start() binds and spawns the accept thread; Wait()
/// blocks until a SHUTDOWN frame (or Shutdown() from another thread)
/// stops the server; the destructor shuts down and joins. A SHUTDOWN
/// request is acked first, then in-flight solves are cancelled through
/// the service's cancel token, the listener closes, and every
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
  Status Start(const ListenOptions& options = {}) {
    return listener_.Start(options);
  }

  /// The bound port (the ephemeral port when options.port was 0); 0
  /// before Start().
  int port() const { return listener_.port(); }

  /// Blocks until the server has stopped (SHUTDOWN frame or
  /// Shutdown()).
  void Wait() { listener_.Wait(); }

  /// Stops accepting, cancels in-flight solves, unblocks connection
  /// reads, and joins every thread. Idempotent; safe from any thread
  /// but a connection handler (which would join itself — handlers use
  /// RequestStop()).
  void Shutdown();

  /// The non-blocking half of Shutdown(): cancels solves, then stops
  /// the listener and unblocks connection reads — without joining
  /// anything, so it is safe from a connection handler and from a
  /// signal watcher while another thread sits in Wait().
  void RequestStop();

 private:
  /// Serves one connection's frames until EOF, a write failure, or
  /// SHUTDOWN. The listener closes `fd` afterwards.
  void ServeConnection(int fd);

  /// Per-opcode request counter and latency histogram, indexed by
  /// BaseTag(opcode) and resolved on the opcode's first request.
  struct OpMetrics {
    LazyMetric<Counter> requests;
    LazyMetric<Histogram> latency_us;
  };

  AdvisorService* service_;
  std::array<OpMetrics, 128> op_metrics_;
  LazyMetric<Counter> slowlog_recorded_;
  /// Declared last: connection threads use every member above.
  Listener listener_{[this](int fd) { ServeConnection(fd); }};
};

}  // namespace cdpd

#endif  // CDPD_SERVER_ADVISOR_SERVER_H_
