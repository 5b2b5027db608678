#include "server/frame.h"

#include <cerrno>
#include <cstring>

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace cdpd {

std::string_view ServerOpName(uint8_t opcode) {
  switch (static_cast<ServerOp>(opcode)) {
    case ServerOp::kPing:
      return "ping";
    case ServerOp::kIngest:
      return "ingest";
    case ServerOp::kWhatIf:
      return "whatif";
    case ServerOp::kRecommend:
      return "recommend";
    case ServerOp::kStats:
      return "stats";
    case ServerOp::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

uint8_t WireStatusCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 1;
    case StatusCode::kNotFound:
      return 2;
    case StatusCode::kFailedPrecondition:
      return 3;
    case StatusCode::kResourceExhausted:
      return 4;
    case StatusCode::kDeadlineExceeded:
      return 5;
    default:
      return 6;  // Internal / anything a newer peer might add.
  }
}

Status StatusFromWire(uint8_t code, std::string_view message) {
  std::string msg(message);
  switch (code) {
    case 0:
      return Status::OK();
    case 1:
      return Status::InvalidArgument(std::move(msg));
    case 2:
      return Status::NotFound(std::move(msg));
    case 3:
      return Status::FailedPrecondition(std::move(msg));
    case 4:
      return Status::ResourceExhausted(std::move(msg));
    case 5:
      return Status::DeadlineExceeded(std::move(msg));
    default:
      return Status::Internal(std::move(msg));
  }
}

Status ValidateRequestId(std::string_view id) {
  if (id.empty()) return Status::InvalidArgument("request id is empty");
  if (id.size() > kMaxRequestIdBytes) {
    return Status::InvalidArgument(
        "request id of " + std::to_string(id.size()) +
        " bytes exceeds the " + std::to_string(kMaxRequestIdBytes) +
        "-byte cap");
  }
  for (char c : id) {
    if (c < 0x21 || c > 0x7e || c == '"' || c == '\\') {
      return Status::InvalidArgument(
          "request id contains a character outside printable ASCII "
          "(spaces, quotes, and backslashes are also rejected)");
    }
  }
  return Status::OK();
}

Status AttachRequestId(std::string_view id, std::string_view payload,
                       std::string* out) {
  CDPD_RETURN_IF_ERROR(ValidateRequestId(id));
  out->clear();
  out->reserve(id.size() + 1 + payload.size());
  out->append(id);
  out->push_back('\n');
  out->append(payload);
  return Status::OK();
}

Status SplitRequestId(std::string_view wire_payload, std::string_view* id,
                      std::string_view* payload) {
  const size_t newline = wire_payload.find('\n');
  if (newline == std::string_view::npos) {
    return Status::InvalidArgument(
        "flagged frame carries no request-id header line");
  }
  const std::string_view header = wire_payload.substr(0, newline);
  CDPD_RETURN_IF_ERROR(ValidateRequestId(header));
  *id = header;
  *payload = wire_payload.substr(newline + 1);
  return Status::OK();
}

Status EncodeFrame(uint8_t tag, std::string_view payload, std::string* out) {
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
        "-byte protocol cap");
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  // Little-endian length prefix, independent of host order.
  out->push_back(static_cast<char>(len & 0xff));
  out->push_back(static_cast<char>((len >> 8) & 0xff));
  out->push_back(static_cast<char>((len >> 16) & 0xff));
  out->push_back(static_cast<char>((len >> 24) & 0xff));
  out->push_back(static_cast<char>(tag));
  out->append(payload);
  return Status::OK();
}

#if defined(_WIN32)

Status ReadExact(int, void*, size_t, bool*) {
  return Status::Internal("advisor serving requires POSIX sockets");
}
Result<size_t> ReadSome(int, void*, size_t) {
  return Status::Internal("advisor serving requires POSIX sockets");
}
Status WriteExact(int, const void*, size_t) {
  return Status::Internal("advisor serving requires POSIX sockets");
}

#else

Status ReadExact(int fd, void* data, size_t size, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  char* out = static_cast<char*>(data);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, out + done, size - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 && done == 0 && clean_eof != nullptr) *clean_eof = true;
    return Status::Internal(n == 0 ? "connection closed"
                                   : std::string("read failed: ") +
                                         std::strerror(errno));
  }
  return Status::OK();
}

Result<size_t> ReadSome(int fd, void* data, size_t size) {
  for (;;) {
    const ssize_t n = ::read(fd, data, size);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno != EINTR) {
      return Status::Internal(std::string("read failed: ") +
                              std::strerror(errno));
    }
  }
}

Status WriteExact(int fd, const void* data, size_t size) {
  const char* in = static_cast<const char*>(data);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, in + done, size - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Internal(std::string("write failed: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

#endif  // _WIN32

Status ReadFrame(int fd, Frame* frame, bool* clean_eof) {
  unsigned char header[5];
  CDPD_RETURN_IF_ERROR(ReadExact(fd, header, sizeof(header), clean_eof));
  const uint32_t len = static_cast<uint32_t>(header[0]) |
                       (static_cast<uint32_t>(header[1]) << 8) |
                       (static_cast<uint32_t>(header[2]) << 16) |
                       (static_cast<uint32_t>(header[3]) << 24);
  if (len > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "frame declares a " + std::to_string(len) +
        "-byte payload, above the " + std::to_string(kMaxPayloadBytes) +
        "-byte protocol cap");
  }
  frame->opcode = header[4];
  frame->payload.resize(len);
  if (len > 0) {
    CDPD_RETURN_IF_ERROR(ReadExact(fd, frame->payload.data(), len));
  }
  return Status::OK();
}

Status WriteFrame(int fd, uint8_t tag, std::string_view payload) {
  std::string wire;
  wire.reserve(5 + payload.size());
  CDPD_RETURN_IF_ERROR(EncodeFrame(tag, payload, &wire));
  return WriteExact(fd, wire.data(), wire.size());
}

}  // namespace cdpd
