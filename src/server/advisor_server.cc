#include "server/advisor_server.h"

#include <atomic>
#include <chrono>
#include <string>
#include <utility>

#include "common/log.h"
#include "common/tracing.h"
#include "server/recorder.h"

namespace cdpd {

namespace {

/// Ops whose requests get a per-request Tracer and a slow-log entry.
/// Pings and stats polls stay untraced: they are the throughput floor,
/// and a monitoring loop must not evict real solves from the log.
bool IsTracedOp(uint8_t opcode) {
  switch (static_cast<ServerOp>(opcode)) {
    case ServerOp::kIngest:
    case ServerOp::kWhatIf:
    case ServerOp::kRecommend:
      return true;
    default:
      return false;
  }
}

/// Server-generated fallback id for clients that sent none — keeps the
/// slow log and log lines attributable without changing what goes back
/// on the wire (an unflagged request gets an unflagged response).
std::string GenerateServerRequestId() {
  static std::atomic<uint64_t> next{0};
  return "srv-" + std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

int64_t UnixMicrosNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

int64_t SteadyMicros(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

AdvisorServer::~AdvisorServer() { Shutdown(); }

void AdvisorServer::ServeConnection(int fd) {
  MetricsRegistry* registry = service_->registry();
  // Registry pointers are stable — resolve once per connection so the
  // per-request hot path touches only lock-free metrics.
  Counter* requests = registry->counter("server.requests");
  Counter* errors = registry->counter("server.request_errors");
  Histogram* latency = registry->histogram("server.request_us");
  Gauge* inflight = registry->gauge("server.inflight_requests");
  for (;;) {
    Frame frame;
    bool clean_eof = false;
    if (!ReadFrame(fd, &frame, &clean_eof).ok()) break;
    const auto start = std::chrono::steady_clock::now();
    const int64_t start_unix_us = UnixMicrosNow();
    const uint8_t opcode = BaseTag(frame.opcode);
    const bool wire_id = HasRequestId(frame.opcode);
    inflight->Add(1);
    requests->Add(1);
    const std::string_view op_name = ServerOpName(opcode);
    OpMetrics& op_metrics = op_metrics_[opcode];
    op_metrics.requests.Get(registry, "server.op.", op_name)->Add(1);

    // Resolve the request id (wire header, or a server-generated
    // fallback) and the opcode's real payload. An unparsable header is
    // a request error like any other — but answered unflagged, since
    // there is no trustworthy id to echo.
    std::string request_id;
    std::string_view payload_view = frame.payload;
    Status id_status = Status::OK();
    if (wire_id) {
      std::string_view id;
      id_status = SplitRequestId(frame.payload, &id, &payload_view);
      if (id_status.ok()) request_id.assign(id);
    }
    if (request_id.empty()) request_id = GenerateServerRequestId();
    // Every log line this request produces on this thread carries the
    // id, whatever logger it lands in.
    LogContext log_ctx("request_id", request_id);

    if (id_status.ok() &&
        opcode == static_cast<uint8_t>(ServerOp::kShutdown)) {
      // Ack first so the requesting client sees a clean success, then
      // stop the transport. RequestStop never joins, so calling it
      // from this handler thread is safe.
      std::string ack;
      uint8_t ack_tag = 0;
      if (wire_id &&
          AttachRequestId(request_id, "", &ack).ok()) {
        ack_tag = static_cast<uint8_t>(ack_tag | kRequestIdFlag);
      }
      (void)WriteFrame(fd, ack_tag, ack);
      if (Recorder* recorder = service_->recorder()) {
        JournalRecord record;
        record.opcode = opcode;
        if (wire_id) record.flags |= JournalRecord::kFlagWireRequestId;
        record.window_epoch = service_->epoch();
        record.mono_us = SteadyMicros(start);
        record.wall_us = start_unix_us;
        record.duration_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        record.request_id = request_id;
        recorder->Append(std::move(record));
      }
      inflight->Add(-1);
      RequestStop();
      break;
    }

    // Solve-class ops get a request-scoped span tree; the transport
    // owns it, the service and solver add spans through RequestContext.
    const bool traced = id_status.ok() && IsTracedOp(opcode);
    Tracer tracer;
    uint8_t status_byte = 0;
    std::string body;
    if (!id_status.ok()) {
      status_byte = WireStatusCode(id_status);
      body = id_status.message();
      errors->Add(1);
    } else {
      RequestContext ctx;
      ctx.request_id = request_id;
      ctx.tracer = traced ? &tracer : nullptr;
      Result<std::string> result = service_->Handle(opcode, payload_view, ctx);
      if (result.ok()) {
        body = std::move(result).value();
      } else {
        status_byte = WireStatusCode(result.status());
        body = result.status().message();
        errors->Add(1);
      }
    }

    // A flagged request is answered flagged: same status code space in
    // the low bits, the echoed id as the payload's header line.
    uint8_t wire_tag = status_byte;
    std::string wire_payload;
    std::string_view response = body;
    if (wire_id && id_status.ok() &&
        AttachRequestId(request_id, body, &wire_payload).ok()) {
      wire_tag = static_cast<uint8_t>(wire_tag | kRequestIdFlag);
      response = wire_payload;
    }
    Status write_status;
    {
      CDPD_TRACE_SPAN(traced ? &tracer : nullptr, "request.respond", "server",
                      static_cast<int64_t>(response.size()));
      write_status = WriteFrame(fd, wire_tag, response);
    }

    // Latency includes the response write — a stalled client reading a
    // large answer is server-observed time, and the bug of recording
    // before WriteExact hid exactly that.
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double elapsed_us = static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
    // Only traced ops leave an exemplar: an exemplar id the exposition
    // advertises must resolve via /trace?id=, and only traced requests
    // enter the slow log. Untraced ping/stats samples stay anonymous.
    Histogram* op_latency =
        op_metrics.latency_us.Get(registry, "server.op_us.", op_name);
    if (traced) {
      latency->Record(elapsed_us, request_id);
      op_latency->Record(elapsed_us, request_id);
    } else {
      latency->Record(elapsed_us);
      op_latency->Record(elapsed_us);
    }
    if (traced) {
      SlowLogEntry entry;
      entry.request_id = request_id;
      entry.op = std::string(op_name);
      entry.wire_status = status_byte;
      entry.start_unix_us = start_unix_us;
      entry.duration_us = static_cast<int64_t>(elapsed_us);
      entry.window_epoch = service_->epoch();
      entry.request_bytes = frame.payload.size();
      entry.response_bytes = response.size();
      entry.spans = tracer.Events();
      service_->slow_log()->Record(std::move(entry));
      slowlog_recorded_.Get(registry, "server.slowlog_recorded")->Add(1);
    }
    // Journal the served request exactly as the service saw it: the
    // real payload and the response body, id headers stripped. Append
    // only buffers in memory — the hot path never waits on the disk.
    if (Recorder* recorder = service_->recorder()) {
      JournalRecord record;
      record.opcode = opcode;
      record.wire_status = status_byte;
      if (wire_id && id_status.ok()) {
        record.flags |= JournalRecord::kFlagWireRequestId;
      }
      record.window_epoch = service_->epoch();
      record.mono_us = SteadyMicros(start);
      record.wall_us = start_unix_us;
      record.duration_us = static_cast<int64_t>(elapsed_us);
      record.request_id = request_id;
      record.payload.assign(payload_view);
      if (status_byte == 0) {
        // Last use of the body on the success path — steal it rather
        // than copy a response at request rate.
        record.response = std::move(body);
      } else {
        record.response = body;  // The failure postmortem below needs it.
      }
      recorder->Append(std::move(record));
    }
    if (status_byte != 0) {
      service_->MaybeWriteFailurePostmortem(
          std::string("request failed: op=") + std::string(op_name) +
          " request_id=" + request_id + " error=" + body);
    }
    inflight->Add(-1);
    if (!write_status.ok()) break;
  }
}

void AdvisorServer::RequestStop() {
  // Cancel first: a connection unblocked below must find its solve
  // already winding down.
  service_->CancelAll();
  listener_.RequestStop();
}

void AdvisorServer::Shutdown() {
  RequestStop();
  Wait();
}

}  // namespace cdpd
