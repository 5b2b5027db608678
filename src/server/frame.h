#ifndef CDPD_SERVER_FRAME_H_
#define CDPD_SERVER_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace cdpd {

/// The advisor serving protocol's wire unit. Every exchange is one
/// request frame followed by one response frame on the same
/// connection:
///
///   request:  [u32 payload_len LE] [u8 opcode] [payload_len bytes]
///   response: [u32 payload_len LE] [u8 status] [payload_len bytes]
///
/// payload_len counts the payload only (the opcode/status byte is not
/// included), so an empty-payload frame is exactly 5 bytes. The length
/// prefix is little-endian regardless of host order. A frame whose
/// declared payload exceeds kMaxPayloadBytes is rejected before any
/// allocation — a garbage or hostile length prefix cannot make the
/// server reserve gigabytes.
///
/// Response status 0 is success; any other value is a StatusCode from
/// common/status.h mapped through WireStatusCode, with the payload
/// carrying the human-readable error message.
struct Frame {
  uint8_t opcode = 0;
  std::string payload;
};

/// Request opcodes (see docs/serving.md for payload formats).
enum class ServerOp : uint8_t {
  kPing = 0,       // Empty payload; empty reply. Transport liveness.
  kIngest = 1,     // SQL text (';'-terminated statements) -> JSON ack.
  kWhatIf = 2,     // Column-list config spec -> JSON estimated cost.
  kRecommend = 3,  // key=value option lines -> JSON recommendation.
  kStats = 4,      // Empty payload -> metrics snapshot JSON.
  kShutdown = 5,   // Empty payload; ack, then the server stops.
};

/// Hard cap on a frame's payload (16 MiB): larger than any plausible
/// ingest batch, small enough that a corrupt length prefix fails fast.
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;

/// The stable lowercase name of an opcode ("ping", "ingest", ...;
/// "unknown" for anything outside the ServerOp range). Shared by the
/// transport's metrics/logs, the flight recorder's journal dumps, and
/// advisor_replay's report.
std::string_view ServerOpName(uint8_t opcode);

/// Optional request-id header. A client that wants end-to-end
/// attribution sets the top bit of the opcode byte and prefixes the
/// payload with `<request-id>\n`; the server echoes the same flag and
/// id on the response (success or error) and stamps the id into its
/// logs, metric exemplars, slow log, and per-request trace. Frames
/// without the flag are the PR 8 wire format, byte for byte — an old
/// client round-trips bit-identically against a new server.
///
/// Opcodes and wire status codes both live in [0, 0x7f], so the flag
/// bit is unambiguous in both directions; BaseTag() recovers the
/// opcode/status.
inline constexpr uint8_t kRequestIdFlag = 0x80;

/// Longest accepted request id. Ids are opaque client-chosen tokens;
/// the cap keeps header parsing trivially bounded.
inline constexpr size_t kMaxRequestIdBytes = 128;

inline constexpr uint8_t BaseTag(uint8_t tag) {
  return static_cast<uint8_t>(tag & 0x7f);
}
inline constexpr bool HasRequestId(uint8_t tag) {
  return (tag & kRequestIdFlag) != 0;
}

/// Checks an id is usable as a wire header: non-empty, at most
/// kMaxRequestIdBytes, printable ASCII, no '\n'/'"'/'\\' (the id is
/// embedded raw in the header line and in JSON/log output).
Status ValidateRequestId(std::string_view id);

/// `id` + '\n' + `payload`, validated. The result is the flagged
/// frame's payload.
Status AttachRequestId(std::string_view id, std::string_view payload,
                       std::string* out);

/// Splits a flagged frame's payload back into the id and the real
/// payload (views into `wire_payload` — no copy). Fails when the
/// header line is missing or the id is invalid.
Status SplitRequestId(std::string_view wire_payload, std::string_view* id,
                      std::string_view* payload);

/// The one-byte wire form of a Status (0 = OK). Stable across
/// releases: new StatusCode values map to the generic internal code
/// rather than shifting existing ones.
uint8_t WireStatusCode(const Status& status);

/// Reconstructs a Status from a response frame's status byte and
/// payload (the error message). Byte 0 yields OK whatever the payload.
Status StatusFromWire(uint8_t code, std::string_view message);

/// Appends one encoded frame (length prefix + tag byte + payload) to
/// `out`. `tag` is the opcode of a request or the wire status of a
/// response. Fails with InvalidArgument when the payload exceeds
/// kMaxPayloadBytes.
Status EncodeFrame(uint8_t tag, std::string_view payload, std::string* out);

/// Reads exactly `size` bytes from `fd`, riding out short reads and
/// EINTR. Fails ("connection closed") when the peer closes mid-read —
/// at offset 0 this is the clean end of a connection; the caller
/// distinguishes via `clean_eof`.
Status ReadExact(int fd, void* data, size_t size, bool* clean_eof = nullptr);

/// One read of up to `size` bytes from `fd`, riding out EINTR: the
/// byte count, 0 once the peer has closed.
Result<size_t> ReadSome(int fd, void* data, size_t size);

/// Writes exactly `size` bytes to `fd`, riding out short writes and
/// EINTR.
Status WriteExact(int fd, const void* data, size_t size);

/// Reads one frame from `fd`. `clean_eof` (optional) is set when the
/// peer closed the connection cleanly before the first length byte —
/// the normal end of a client session, reported as an error status
/// but not a protocol violation. A declared payload above
/// kMaxPayloadBytes fails with InvalidArgument before allocating.
Status ReadFrame(int fd, Frame* frame, bool* clean_eof = nullptr);

/// Encodes and writes one frame to `fd`.
Status WriteFrame(int fd, uint8_t tag, std::string_view payload);

}  // namespace cdpd

#endif  // CDPD_SERVER_FRAME_H_
