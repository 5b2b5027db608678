#include "server/http_endpoint.h"

#include "server/frame.h"
#include "server/recorder.h"
#include "server/slow_log.h"

namespace cdpd {

namespace {

std::string_view StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

}  // namespace

HttpResponse HttpEndpoint::Route(std::string_view target) {
  std::string_view path = target;
  std::string_view query;
  const size_t qmark = target.find('?');
  if (qmark != std::string_view::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }
  http_requests_.Get(service_->registry(), "server.http_requests")->Add(1);

  HttpResponse response;
  if (path == "/metrics") {
    // The 0.0.4 text exposition format Prometheus scrapes.
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = service_->StatsSnapshot().ToPrometheus();
    return response;
  }
  if (path == "/healthz") {
    response.body = "ok\n";
    return response;
  }
  if (path == "/readyz") {
    if (service_->ready()) {
      response.body = "ready\n";
    } else {
      response.status = 503;
      response.body = "not ready: waiting for the first INGEST\n";
    }
    return response;
  }
  if (path == "/varz") {
    response.content_type = "application/json";
    response.body = service_->VarzJson();
    return response;
  }
  if (path == "/recorder") {
    Recorder* recorder = service_->recorder();
    response.content_type = "application/json";
    if (recorder == nullptr) {
      response.body = "{\"recording\":false}";
      return response;
    }
    if (query == "rotate=1") {
      const Status status = recorder->Rotate();
      if (!status.ok()) {
        response.status = 503;
        response.content_type = "text/plain; charset=utf-8";
        response.body = status.message() + "\n";
        return response;
      }
    }
    response.body = recorder->StatusJson();
    return response;
  }
  if (path == "/slowlog") {
    response.content_type = "application/json";
    response.body = service_->slow_log()->ToJson();
    return response;
  }
  if (path == "/trace") {
    constexpr std::string_view kIdParam = "id=";
    std::string_view id;
    for (std::string_view rest = query; !rest.empty();) {
      const size_t amp = rest.find('&');
      const std::string_view param = rest.substr(0, amp);
      rest = amp == std::string_view::npos ? std::string_view()
                                          : rest.substr(amp + 1);
      if (param.substr(0, kIdParam.size()) == kIdParam) {
        id = param.substr(kIdParam.size());
      }
    }
    if (id.empty() || !ValidateRequestId(id).ok()) {
      response.status = 400;
      response.body = "usage: /trace?id=<request-id>\n";
      return response;
    }
    std::optional<SlowLogEntry> entry = service_->slow_log()->Find(id);
    if (!entry.has_value()) {
      response.status = 404;
      response.body = "no recorded request with that id (the recent ring "
                      "holds the last " +
                      std::to_string(service_->options().slow_log_recent) +
                      " requests)\n";
      return response;
    }
    response.content_type = "application/json";
    response.body = entry->ToJson();
    return response;
  }
  response.status = 404;
  response.body =
      "not found; endpoints: /metrics /healthz /readyz /varz /slowlog "
      "/trace?id= /recorder\n";
  return response;
}

void HttpEndpoint::ServeConnection(int fd) {
  // Read until the header terminator; the request line is all we use.
  // 8 KiB is generous for "GET /metrics HTTP/1.1" plus curl's headers.
  std::string request;
  char buf[1024];
  bool have_headers = false;
  while (request.size() < 8192) {
    const Result<size_t> n = ReadSome(fd, buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    request.append(buf, *n);
    if (request.find("\r\n\r\n") != std::string::npos ||
        request.find("\n\n") != std::string::npos) {
      have_headers = true;
      break;
    }
  }

  HttpResponse response;
  if (!have_headers) {
    response.status = 400;
    response.body = "malformed request\n";
  } else {
    const size_t line_end = request.find_first_of("\r\n");
    const std::string_view line =
        std::string_view(request).substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
      response.status = 400;
      response.body = "malformed request line\n";
    } else if (line.substr(0, sp1) != "GET") {
      response.status = 405;
      response.body = "only GET is served\n";
    } else {
      response = Route(line.substr(sp1 + 1, sp2 - sp1 - 1));
    }
  }

  std::string wire = "HTTP/1.0 " + std::to_string(response.status) + " " +
                     std::string(StatusText(response.status)) + "\r\n";
  wire += "Content-Type: " + response.content_type + "\r\n";
  wire += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  wire += "Connection: close\r\n\r\n";
  wire += response.body;
  (void)WriteExact(fd, wire.data(), wire.size());
}

}  // namespace cdpd
