// The HTTP observability plane: routing (pure, no sockets) plus one
// live-listener test over real TCP. The Prometheus rendering itself is
// covered in common/metrics_test.cc; here we check the endpoints wire
// the service state through.

#include "server/http_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "server/advisor_server.h"
#include "server/client.h"
#include "server/recorder.h"

namespace cdpd {
namespace {

ServiceOptions TestServiceOptions() {
  ServiceOptions options;
  options.rows = 50'000;
  options.domain_size = 100'000;
  options.block_size = 5;
  options.k = 2;
  options.num_threads = 2;
  return options;
}

std::string TestTrace() {
  return "SELECT a FROM t WHERE a = 1;\n"
         "SELECT b FROM t WHERE b = 2;\n"
         "SELECT c FROM t WHERE d = 3;\n"
         "SELECT d FROM t WHERE b = 4;\n"
         "UPDATE t SET a = 5 WHERE b = 6;\n";
}

/// Minimal HTTP client: one GET, returns the raw response (status line,
/// headers, body).
std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpEndpointTest, RoutesHealthAndReadiness) {
  AdvisorService service(TestServiceOptions());
  HttpEndpoint endpoint(&service);

  EXPECT_EQ(endpoint.Route("/healthz").status, 200);
  EXPECT_EQ(endpoint.Route("/healthz").body, "ok\n");

  // Not ready before the first ingest; ready after.
  EXPECT_EQ(endpoint.Route("/readyz").status, 503);
  ASSERT_TRUE(service.IngestSql(TestTrace()).ok());
  EXPECT_EQ(endpoint.Route("/readyz").status, 200);
}

TEST(HttpEndpointTest, MetricsAndVarzRenderTheLiveRegistry) {
  AdvisorService service(TestServiceOptions());
  HttpEndpoint endpoint(&service);
  ASSERT_TRUE(service.IngestSql(TestTrace()).ok());
  ASSERT_TRUE(service.RecommendNow(RecommendRequest{}).ok());

  const HttpResponse metrics = endpoint.Route("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE server_window_statements gauge"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("server_window_statements 5"),
            std::string::npos);
  // Solver-side metrics flow through after a recommend.
  EXPECT_NE(metrics.body.find("solver_costings"), std::string::npos);
  EXPECT_NE(metrics.body.find("mem_peak_bytes_total"), std::string::npos);

  const HttpResponse varz = endpoint.Route("/varz");
  EXPECT_EQ(varz.status, 200);
  EXPECT_EQ(varz.content_type, "application/json");
  EXPECT_NE(varz.body.find("\"counters\""), std::string::npos);
  EXPECT_NE(varz.body.find("server.window_statements"), std::string::npos);
}

TEST(HttpEndpointTest, SlowlogAndTraceResolveRecordedRequests) {
  AdvisorService service(TestServiceOptions());
  HttpEndpoint endpoint(&service);

  SlowLogEntry entry;
  entry.request_id = "http-req-1";
  entry.op = "whatif";
  entry.duration_us = 123;
  service.slow_log()->Record(entry);

  const HttpResponse slowlog = endpoint.Route("/slowlog");
  EXPECT_EQ(slowlog.status, 200);
  EXPECT_NE(slowlog.body.find("\"http-req-1\""), std::string::npos);

  EXPECT_EQ(endpoint.Route("/trace?id=http-req-1").status, 200);
  EXPECT_NE(endpoint.Route("/trace?id=http-req-1").body.find(
                "\"duration_us\":123"),
            std::string::npos);
  // Extra params are tolerated, the id is still found.
  EXPECT_EQ(endpoint.Route("/trace?x=1&id=http-req-1").status, 200);
  EXPECT_EQ(endpoint.Route("/trace?id=never-seen").status, 404);
  EXPECT_EQ(endpoint.Route("/trace").status, 400);
  EXPECT_EQ(endpoint.Route("/trace?id=bad id").status, 400);
}

TEST(HttpEndpointTest, UnknownTargetsAre404) {
  AdvisorService service(TestServiceOptions());
  HttpEndpoint endpoint(&service);
  EXPECT_EQ(endpoint.Route("/nope").status, 404);
  EXPECT_EQ(endpoint.Route("/").status, 404);
  // The 404 body advertises the endpoint surface, recorder included.
  EXPECT_NE(endpoint.Route("/nope").body.find("/recorder"),
            std::string::npos);
}

TEST(HttpEndpointTest, VarzCarriesBuildIdentityAndRecorderState) {
  AdvisorService service(TestServiceOptions());
  HttpEndpoint endpoint(&service);
  const std::string varz = endpoint.Route("/varz").body;
  EXPECT_NE(varz.find("\"git_sha\":"), std::string::npos) << varz;
  EXPECT_NE(varz.find("\"build_type\":"), std::string::npos);
  EXPECT_NE(varz.find("\"uptime_seconds\":"), std::string::npos);
  // No --record: the recorder object says so.
  EXPECT_NE(varz.find("\"recorder\":{\"recording\":false}"),
            std::string::npos)
      << varz;
  // Still a strict superset of the stats document.
  EXPECT_NE(varz.find("\"counters\""), std::string::npos);
}

TEST(HttpEndpointTest, RecorderEndpointReportsAndRotates) {
  AdvisorService service(TestServiceOptions());
  HttpEndpoint endpoint(&service);

  // Without a recorder the endpoint degrades to a status document.
  EXPECT_EQ(endpoint.Route("/recorder").status, 200);
  EXPECT_EQ(endpoint.Route("/recorder").body, "{\"recording\":false}");

  Recorder::Options options;
  options.path = ::testing::TempDir() + "/http_recorder_journal";
  // The recorder resumes after existing segments; drop any journal a
  // previous test run left behind (the assertions pin segment_index).
  for (int i = 0;; ++i) {
    if (std::remove(JournalSegmentPath(options.path, i).c_str()) != 0) break;
  }
  auto recorder = Recorder::Open(std::move(options), service.registry());
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  service.set_recorder(recorder->get());

  const HttpResponse status = endpoint.Route("/recorder");
  EXPECT_EQ(status.status, 200);
  EXPECT_EQ(status.content_type, "application/json");
  EXPECT_NE(status.body.find("\"recording\":true"), std::string::npos)
      << status.body;
  EXPECT_NE(status.body.find("\"segment_index\":0"), std::string::npos);

  // /varz mirrors the live recorder status.
  EXPECT_NE(endpoint.Route("/varz").body.find("\"recording\":true"),
            std::string::npos);

  const HttpResponse rotated = endpoint.Route("/recorder?rotate=1");
  EXPECT_EQ(rotated.status, 200);
  EXPECT_NE(rotated.body.find("\"segment_index\":1"), std::string::npos)
      << rotated.body;

  service.set_recorder(nullptr);
  (*recorder)->Close();
}

TEST(HttpEndpointTest, FinishedConnectionThreadsAreReapedDuringOperation) {
  // A long-lived server scraped forever must not accumulate one
  // unjoined thread per past request: the accept loop joins finished
  // handlers before each accept, so the tracked set stays bounded.
  AdvisorService service(TestServiceOptions());
  HttpEndpoint endpoint(&service);
  ASSERT_TRUE(endpoint.Start().ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_NE(HttpGet(endpoint.port(), "/healthz").find("200 OK"),
              std::string::npos);
  }
  // Reaping happens on the accept after a handler finishes; keep
  // issuing requests until the backlog of finished threads drains.
  bool reaped = false;
  for (int i = 0; i < 200 && !reaped; ++i) {
    ASSERT_NE(HttpGet(endpoint.port(), "/healthz").find("200 OK"),
              std::string::npos);
    reaped = endpoint.TrackedConnectionsForTest() <= 2;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(reaped);
  endpoint.Shutdown();
}

TEST(HttpEndpointTest, ServesRealSocketsNextToTheFrameServer) {
  AdvisorService service(TestServiceOptions());
  AdvisorServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  HttpEndpoint endpoint(&service);
  ASSERT_TRUE(endpoint.Start().ok());
  ASSERT_GT(endpoint.port(), 0);
  ASSERT_NE(endpoint.port(), server.port());

  EXPECT_NE(HttpGet(endpoint.port(), "/healthz").find("200 OK"),
            std::string::npos);
  EXPECT_NE(HttpGet(endpoint.port(), "/readyz").find("503"),
            std::string::npos);

  // Drive the frame server, then observe it over HTTP.
  AdvisorClient client =
      AdvisorClient::Connect("127.0.0.1", server.port()).value();
  ASSERT_TRUE(client.Ingest(TestTrace()).ok());
  client.set_next_request_id("http-e2e-1");
  ASSERT_TRUE(client.Recommend("k=1").ok());
  // Metrics and slow-log entries commit after the response write; a
  // follow-up request on the same (sequential) connection serializes
  // past the recommend's record before we scrape.
  ASSERT_TRUE(client.Ping().ok());

  EXPECT_NE(HttpGet(endpoint.port(), "/readyz").find("200 OK"),
            std::string::npos);
  const std::string metrics = HttpGet(endpoint.port(), "/metrics");
  EXPECT_NE(metrics.find("server_requests 3"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("# TYPE server_request_us summary"),
            std::string::npos);
  // The recommend's id is the recommend-histogram's exemplar (the ping
  // that followed only touches server_request_us / op_us.ping).
  EXPECT_NE(metrics.find(
                "# exemplar server_op_us_recommend request_id=\"http-e2e-1\""),
            std::string::npos);
  const std::string trace = HttpGet(endpoint.port(), "/trace?id=http-e2e-1");
  EXPECT_NE(trace.find("200 OK"), std::string::npos);
  EXPECT_NE(trace.find("\"request.solve\""), std::string::npos) << trace;

  // Non-GET and garbage are rejected without wedging the listener.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(endpoint.port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string post = "POST /metrics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::write(fd, post.data(), post.size()),
              static_cast<ssize_t>(post.size()));
    std::string response;
    char buf[512];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      response.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    EXPECT_NE(response.find("405"), std::string::npos);
  }
  EXPECT_NE(HttpGet(endpoint.port(), "/healthz").find("200 OK"),
            std::string::npos);

  endpoint.Shutdown();
  server.Shutdown();
  server.Wait();
}

}  // namespace
}  // namespace cdpd
