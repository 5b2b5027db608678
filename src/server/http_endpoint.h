#ifndef CDPD_SERVER_HTTP_ENDPOINT_H_
#define CDPD_SERVER_HTTP_ENDPOINT_H_

#include <string>
#include <string_view>

#include "common/metrics.h"
#include "common/result.h"
#include "server/advisor_service.h"
#include "server/listener.h"

namespace cdpd {

/// One parsed HTTP request target and the response to send back —
/// separated from the socket loop so the routing logic is unit-testable
/// without a live listener.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// The advisor's observability plane: a minimal HTTP/1.0 listener that
/// runs in the same process as the frame-protocol server (separate
/// port) and serves read-only views of the AdvisorService:
///
///   GET /metrics   Prometheus text exposition of the live snapshot
///                  (counters, gauges, histogram summaries, exemplars).
///   GET /healthz   200 once the process serves — liveness.
///   GET /readyz    200 after the first INGEST left a non-empty window
///                  (the catalog is pinned at construction), else 503 —
///                  readiness for real traffic.
///   GET /varz      The metrics snapshot as JSON (StatsJson).
///   GET /slowlog   The slowest recorded requests, slowest first, with
///                  their span trees.
///   GET /trace?id=<request-id>
///                  One request's slow-log entry by id (recent ring
///                  first), 404 when the id has aged out.
///
/// One request per connection (Connection: close), served on the
/// connection's Listener thread (server/listener.h); request bodies
/// are ignored and only GET is served. The service is borrowed and
/// must outlive the endpoint.
class HttpEndpoint {
 public:
  explicit HttpEndpoint(AdvisorService* service) : service_(service) {}
  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;
  ~HttpEndpoint() { Shutdown(); }

  /// Binds, listens, and spawns the accept thread.
  Status Start(const ListenOptions& options = {}) {
    return listener_.Start(options);
  }

  /// The bound port (the ephemeral port when options.port was 0); 0
  /// before Start().
  int port() const { return listener_.port(); }

  /// Stops accepting, unblocks in-flight connections, joins all
  /// threads. Idempotent.
  void Shutdown() { listener_.Shutdown(); }

  /// Connections still tracked (serving, or finished and awaiting the
  /// accept loop's next reap). Exposed so tests can assert the set
  /// stays bounded across many sequential requests.
  size_t TrackedConnectionsForTest() { return listener_.tracked_connections(); }

  /// Pure routing: maps a request target ("/metrics",
  /// "/trace?id=abc") to the response the socket loop would send.
  /// Exposed for tests.
  HttpResponse Route(std::string_view target);

 private:
  /// Reads one request, writes its response. The listener closes `fd`
  /// afterwards.
  void ServeConnection(int fd);

  AdvisorService* service_;
  LazyMetric<Counter> http_requests_;
  /// Declared last: connection threads use every member above.
  Listener listener_{[this](int fd) { ServeConnection(fd); }};
};

}  // namespace cdpd

#endif  // CDPD_SERVER_HTTP_ENDPOINT_H_
