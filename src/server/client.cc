#include "server/client.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <utility>

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace cdpd {

#if defined(_WIN32)

Result<AdvisorClient> AdvisorClient::Connect(const std::string&, int) {
  return Status::Internal("advisor serving requires POSIX sockets");
}
void AdvisorClient::Close() {}

#else

Result<AdvisorClient> AdvisorClient::Connect(const std::string& host,
                                             int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("cannot parse host '" + host +
                                   "' as an IPv4 address");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Internal("connect to " + host + ":" +
                            std::to_string(port) + " failed: " + error);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return AdvisorClient(fd);
}

void AdvisorClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

#endif  // _WIN32

namespace {

/// Process-unique client-side ids: a connect-time-ish epoch plus a
/// dense counter. No cryptographic uniqueness needed — collisions only
/// blur which slow-log entry is whose.
std::string GenerateClientRequestId() {
  static const int64_t epoch_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  static std::atomic<uint64_t> next{0};
  std::string id = "c";
  id += std::to_string(epoch_us);
  id += "-";
  id += std::to_string(next.fetch_add(1, std::memory_order_relaxed));
  return id;
}

}  // namespace

Result<std::string> AdvisorClient::Call(ServerOp op,
                                        std::string_view payload) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  std::string request_id;
  if (!next_request_id_.empty()) {
    request_id = std::move(next_request_id_);
    next_request_id_.clear();
  } else if (request_ids_enabled_) {
    request_id = GenerateClientRequestId();
  }
  if (request_id.empty()) {
    last_request_id_.clear();
    CDPD_RETURN_IF_ERROR(WriteFrame(fd_, static_cast<uint8_t>(op), payload));
  } else {
    std::string wire;
    CDPD_RETURN_IF_ERROR(AttachRequestId(request_id, payload, &wire));
    CDPD_RETURN_IF_ERROR(WriteFrame(
        fd_, static_cast<uint8_t>(static_cast<uint8_t>(op) | kRequestIdFlag),
        wire));
    last_request_id_ = std::move(request_id);
  }
  Frame response;
  CDPD_RETURN_IF_ERROR(ReadFrame(fd_, &response));
  std::string_view body = response.payload;
  if (HasRequestId(response.opcode)) {
    std::string_view echoed;
    CDPD_RETURN_IF_ERROR(SplitRequestId(response.payload, &echoed, &body));
    if (!last_request_id_.empty() && echoed != last_request_id_) {
      return Status::Internal("response echoes request id '" +
                              std::string(echoed) + "' for request '" +
                              last_request_id_ + "'");
    }
  }
  const uint8_t status = BaseTag(response.opcode);
  if (status != 0) {
    return StatusFromWire(status, body);
  }
  return std::string(body);
}

Status AdvisorClient::Ping() { return Call(ServerOp::kPing, "").status(); }

Result<std::string> AdvisorClient::Ingest(std::string_view sql) {
  return Call(ServerOp::kIngest, sql);
}

Result<std::string> AdvisorClient::WhatIf(std::string_view config_spec) {
  return Call(ServerOp::kWhatIf, config_spec);
}

Result<std::string> AdvisorClient::Recommend(std::string_view options) {
  return Call(ServerOp::kRecommend, options);
}

Result<std::string> AdvisorClient::Stats() {
  return Call(ServerOp::kStats, "");
}

Status AdvisorClient::Shutdown() {
  return Call(ServerOp::kShutdown, "").status();
}

}  // namespace cdpd
