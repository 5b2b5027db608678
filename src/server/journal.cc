#include "server/journal.h"

#include <fcntl.h>
#include <sys/stat.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "common/json_util.h"
#include "server/frame.h"

namespace cdpd {

namespace {

/// Slice-by-8 CRC tables: table[0] is the classic byte-at-a-time
/// table; table[k][b] advances byte b through k additional zero bytes,
/// so eight input bytes fold into the CRC with eight independent table
/// lookups instead of an eight-deep dependency chain. The writer
/// checksums every frame at request rate — byte-at-a-time CRC was a
/// measurable slice of the recording overhead.
std::array<std::array<uint32_t, 256>, 8> BuildCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

uint32_t LoadU32Le(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void AppendU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

void AppendU64(std::string* out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v & 0xffffffffu));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

void AppendI64(std::string* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

void AppendLenPrefixed(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Overwrites 4 already-appended bytes at `at` with `v` LE — for
/// patching a frame's length/CRC slots once the body is in place.
void StoreU32(std::string* out, size_t at, uint32_t v) {
  (*out)[at] = static_cast<char>(v & 0xff);
  (*out)[at + 1] = static_cast<char>((v >> 8) & 0xff);
  (*out)[at + 2] = static_cast<char>((v >> 16) & 0xff);
  (*out)[at + 3] = static_cast<char>((v >> 24) & 0xff);
}

size_t EncodedRecordSize(const JournalRecord& record) {
  return 3 + 8 + 3 * 8 + 3 * 4 + record.request_id.size() +
         record.payload.size() + record.response.size();
}

void AppendRecordBody(std::string* out, const JournalRecord& record) {
  out->push_back(static_cast<char>(record.opcode));
  out->push_back(static_cast<char>(record.wire_status));
  out->push_back(static_cast<char>(record.flags));
  AppendU64(out, record.window_epoch);
  AppendI64(out, record.mono_us);
  AppendI64(out, record.wall_us);
  AppendI64(out, record.duration_us);
  AppendLenPrefixed(out, record.request_id);
  AppendLenPrefixed(out, record.payload);
  AppendLenPrefixed(out, record.response);
}

/// Cursor over a decoded record's bytes; every read checks bounds.
class ByteCursor {
 public:
  explicit ByteCursor(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > bytes_.size()) return false;
    *v = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(bytes_.data() + pos_);
    *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }

  bool ReadI64(int64_t* v) {
    uint64_t u = 0;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool ReadLenPrefixed(std::string* s) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (pos_ + len > bytes_.size()) return false;
    s->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Finds `"key":` at the top level of a flat JSON object and returns a
/// view of the raw value token (number, "string", null). The meta JSON
/// is machine-written by JournalMeta::ToJson, so a key scanner is
/// enough — no nesting, no arrays, no escaped quotes inside keys.
bool FindJsonValue(std::string_view json, std::string_view key,
                   std::string_view* value) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const size_t at = json.find(needle);
  if (at == std::string_view::npos) return false;
  size_t start = at + needle.size();
  while (start < json.size() && json[start] == ' ') ++start;
  if (start >= json.size()) return false;
  size_t end = start;
  if (json[end] == '"') {
    end = json.find('"', end + 1);
    if (end == std::string_view::npos) return false;
    ++end;  // Include the closing quote.
  } else {
    while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  }
  *value = json.substr(start, end - start);
  return true;
}

Result<int64_t> ParseJsonInt(std::string_view token, std::string_view key) {
  errno = 0;
  char* end = nullptr;
  const std::string buf(token);
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end == buf.c_str() || *end != '\0') {
    return Status::InvalidArgument("journal meta field '" + std::string(key) +
                                   "' is not an integer: " + buf);
  }
  return static_cast<int64_t>(v);
}

Result<std::string> ParseJsonString(std::string_view token,
                                    std::string_view key) {
  if (token.size() < 2 || token.front() != '"' || token.back() != '"') {
    return Status::InvalidArgument("journal meta field '" + std::string(key) +
                                   "' is not a string: " + std::string(token));
  }
  return std::string(token.substr(1, token.size() - 2));
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<std::array<uint32_t, 256>, 8> kTables =
      BuildCrcTables();
  uint32_t crc = 0xffffffffu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  while (n >= 8) {
    const uint32_t lo = LoadU32Le(p) ^ crc;
    const uint32_t hi = LoadU32Le(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string EncodeJournalRecord(const JournalRecord& record) {
  std::string out;
  out.reserve(EncodedRecordSize(record));
  AppendRecordBody(&out, record);
  return out;
}

Result<JournalRecord> DecodeJournalRecord(std::string_view bytes) {
  JournalRecord record;
  ByteCursor cursor(bytes);
  if (cursor.ReadU8(&record.opcode) && cursor.ReadU8(&record.wire_status) &&
      cursor.ReadU8(&record.flags) && cursor.ReadU64(&record.window_epoch) &&
      cursor.ReadI64(&record.mono_us) && cursor.ReadI64(&record.wall_us) &&
      cursor.ReadI64(&record.duration_us) &&
      cursor.ReadLenPrefixed(&record.request_id) &&
      cursor.ReadLenPrefixed(&record.payload) &&
      cursor.ReadLenPrefixed(&record.response) && cursor.exhausted()) {
    return record;
  }
  return Status::InvalidArgument(
      "journal record of " + std::to_string(bytes.size()) +
      " bytes is malformed (short field or trailing garbage)");
}

std::string JournalMeta::ToJson() const {
  std::string out = "{";
  out += "\"rows\":" + std::to_string(rows);
  out += ",\"domain_size\":" + std::to_string(domain_size);
  out += ",\"block_size\":" + std::to_string(block_size);
  out += ",\"window_statements\":" + std::to_string(window_statements);
  out += ",\"k\":";
  out += k.has_value() ? std::to_string(*k) : "null";
  out += ",\"method\":" + JsonString(method);
  out += ",\"max_indexes_per_config\":" + std::to_string(max_indexes_per_config);
  out += "}";
  return out;
}

Result<JournalMeta> JournalMeta::FromJson(std::string_view json) {
  JournalMeta meta;
  struct IntField {
    std::string_view key;
    int64_t* dest;
  };
  const IntField int_fields[] = {
      {"rows", &meta.rows},
      {"domain_size", &meta.domain_size},
      {"block_size", &meta.block_size},
      {"window_statements", &meta.window_statements},
      {"max_indexes_per_config", &meta.max_indexes_per_config},
  };
  for (const IntField& field : int_fields) {
    std::string_view token;
    if (!FindJsonValue(json, field.key, &token)) {
      return Status::InvalidArgument("journal meta is missing field '" +
                                     std::string(field.key) + "'");
    }
    CDPD_ASSIGN_OR_RETURN(*field.dest, ParseJsonInt(token, field.key));
  }
  std::string_view token;
  if (!FindJsonValue(json, "k", &token)) {
    return Status::InvalidArgument("journal meta is missing field 'k'");
  }
  if (token == "null") {
    meta.k.reset();
  } else {
    CDPD_ASSIGN_OR_RETURN(int64_t k, ParseJsonInt(token, "k"));
    meta.k = k;
  }
  if (!FindJsonValue(json, "method", &token)) {
    return Status::InvalidArgument("journal meta is missing field 'method'");
  }
  CDPD_ASSIGN_OR_RETURN(meta.method, ParseJsonString(token, "method"));
  return meta;
}

std::string JournalSegmentPath(const std::string& base, int index) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".%06d", index);
  return base + suffix;
}

#if defined(_WIN32)

Status JournalWriter::Open(const std::string&, const JournalMeta&) {
  return Status::Internal("the journal requires POSIX file IO");
}
Status JournalWriter::Append(const JournalRecord&, int64_t*) {
  return Status::Internal("the journal requires POSIX file IO");
}
Status JournalWriter::Sync() {
  return Status::Internal("the journal requires POSIX file IO");
}
Status JournalWriter::Close() { return Status::OK(); }
Status JournalWriter::FlushBuffer() { return Status::OK(); }

JournalReader::~JournalReader() = default;
Status JournalReader::Open(const std::string&) {
  return Status::Internal("the journal requires POSIX file IO");
}
bool JournalReader::Next(JournalRecord*) { return false; }
bool JournalReader::OpenCurrentSegment() { return false; }
void JournalReader::MarkTruncated(const std::string&) {}

#else

Status JournalWriter::Open(const std::string& path, const JournalMeta& meta) {
  CDPD_RETURN_IF_ERROR(Close());
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("cannot create journal segment", path);
  fd_ = fd;
  path_ = path;
  bytes_written_ = 0;

  const std::string meta_json = meta.ToJson();
  std::string header(kJournalMagic, sizeof(kJournalMagic));
  AppendU32(&header, static_cast<uint32_t>(meta_json.size()));
  AppendU32(&header, Crc32(meta_json));
  header.append(meta_json);
  const Status status = WriteExact(fd_, header.data(), header.size());
  if (!status.ok()) {
    Close();
    return status;
  }
  bytes_written_ = static_cast<int64_t>(header.size());
  return Status::OK();
}

Status JournalWriter::Append(const JournalRecord& record, int64_t* bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("journal writer is closed");
  // Encode straight into the output buffer — length and CRC are
  // patched in once the body is in place, so a frame costs no
  // intermediate string (the writer runs at request rate).
  const size_t frame_at = buffer_.size();
  buffer_.reserve(frame_at + 8 + EncodedRecordSize(record));
  buffer_.append(8, '\0');
  AppendRecordBody(&buffer_, record);
  const size_t body_len = buffer_.size() - frame_at - 8;
  StoreU32(&buffer_, frame_at, static_cast<uint32_t>(body_len));
  StoreU32(&buffer_, frame_at + 4,
           Crc32(std::string_view(buffer_).substr(frame_at + 8)));
  const size_t frame_bytes = 8 + body_len;
  bytes_written_ += static_cast<int64_t>(frame_bytes);
  if (bytes != nullptr) *bytes = static_cast<int64_t>(frame_bytes);
  // One write syscall per many frames: the recorder's writer thread
  // appends at request rate, and a per-frame write() would make the
  // kernel the bottleneck long before the disk is.
  if (buffer_.size() >= 256u * 1024u) return FlushBuffer();
  return Status::OK();
}

Status JournalWriter::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  const Status status = WriteExact(fd_, buffer_.data(), buffer_.size());
  buffer_.clear();
  return status;
}

Status JournalWriter::Sync() {
  if (fd_ < 0) return Status::OK();
  CDPD_RETURN_IF_ERROR(FlushBuffer());
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync failed on", path_);
  return Status::OK();
}

Status JournalWriter::Close() {
  if (fd_ < 0) return Status::OK();
  const Status sync = Sync();
  ::close(fd_);
  fd_ = -1;
  return sync;
}

JournalReader::~JournalReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status JournalReader::Open(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
    segments_.push_back(path);
  } else {
    // A journal base: collect `<base>.000000`, `<base>.000001`, ...
    for (int index = 0;; ++index) {
      const std::string segment = JournalSegmentPath(path, index);
      if (::stat(segment.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) break;
      segments_.push_back(segment);
    }
    if (segments_.empty()) {
      return Status::NotFound("no journal at '" + path +
                              "' (neither a segment file nor a base with " +
                              JournalSegmentPath(path, 0) + ")");
    }
  }
  if (!OpenCurrentSegment()) {
    // The very first segment's header is unreadable: the journal as a
    // whole is unusable, so report it as an open error rather than an
    // empty truncated stream.
    return Status::InvalidArgument("journal '" + path +
                                   "' is unreadable: " + truncated_error_);
  }
  return Status::OK();
}

bool JournalReader::OpenCurrentSegment() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (segment_index_ >= segments_.size()) return false;
  const std::string& path = segments_[segment_index_];
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    MarkTruncated("cannot open segment " + path + ": " +
                  std::strerror(errno));
    return false;
  }

  char magic[sizeof(kJournalMagic)];
  bool clean_eof = false;
  if (!ReadExact(fd_, magic, sizeof(magic), &clean_eof).ok() ||
      std::memcmp(magic, kJournalMagic, sizeof(magic)) != 0) {
    MarkTruncated("segment " + path + " has a bad or missing magic header");
    return false;
  }
  unsigned char lens[8];
  if (!ReadExact(fd_, lens, sizeof(lens)).ok()) {
    MarkTruncated("segment " + path + " has a torn meta header");
    return false;
  }
  const uint32_t meta_len = static_cast<uint32_t>(lens[0]) |
                            (static_cast<uint32_t>(lens[1]) << 8) |
                            (static_cast<uint32_t>(lens[2]) << 16) |
                            (static_cast<uint32_t>(lens[3]) << 24);
  const uint32_t meta_crc = static_cast<uint32_t>(lens[4]) |
                            (static_cast<uint32_t>(lens[5]) << 8) |
                            (static_cast<uint32_t>(lens[6]) << 16) |
                            (static_cast<uint32_t>(lens[7]) << 24);
  if (meta_len > kMaxJournalRecordBytes) {
    MarkTruncated("segment " + path + " declares an implausible " +
                  std::to_string(meta_len) + "-byte meta header");
    return false;
  }
  std::string meta_json(meta_len, '\0');
  if (meta_len > 0 && !ReadExact(fd_, meta_json.data(), meta_len).ok()) {
    MarkTruncated("segment " + path + " has a torn meta header");
    return false;
  }
  if (Crc32(meta_json) != meta_crc) {
    MarkTruncated("segment " + path + " fails the meta CRC check");
    return false;
  }
  Result<JournalMeta> meta = JournalMeta::FromJson(meta_json);
  if (!meta.ok()) {
    MarkTruncated("segment " + path + ": " + meta.status().message());
    return false;
  }
  // Every segment carries the same meta; the first one read wins.
  if (!header_read_) {
    meta_ = std::move(meta).value();
    header_read_ = true;
  }
  return true;
}

bool JournalReader::Next(JournalRecord* record) {
  while (fd_ >= 0) {
    unsigned char lens[8];
    bool clean_eof = false;
    const Status header = ReadExact(fd_, lens, sizeof(lens), &clean_eof);
    if (!header.ok()) {
      if (clean_eof) {
        // Clean end of this segment: advance to the next one.
        ++segment_index_;
        if (!OpenCurrentSegment()) return false;
        continue;
      }
      MarkTruncated("segment " + segments_[segment_index_] +
                    " ends with a torn frame header");
      return false;
    }
    const uint32_t record_len = static_cast<uint32_t>(lens[0]) |
                                (static_cast<uint32_t>(lens[1]) << 8) |
                                (static_cast<uint32_t>(lens[2]) << 16) |
                                (static_cast<uint32_t>(lens[3]) << 24);
    const uint32_t record_crc = static_cast<uint32_t>(lens[4]) |
                                (static_cast<uint32_t>(lens[5]) << 8) |
                                (static_cast<uint32_t>(lens[6]) << 16) |
                                (static_cast<uint32_t>(lens[7]) << 24);
    if (record_len > kMaxJournalRecordBytes) {
      MarkTruncated("segment " + segments_[segment_index_] +
                    " declares an implausible " + std::to_string(record_len) +
                    "-byte record");
      return false;
    }
    std::string body(record_len, '\0');
    if (record_len > 0 && !ReadExact(fd_, body.data(), record_len).ok()) {
      MarkTruncated("segment " + segments_[segment_index_] +
                    " ends with a torn record body");
      return false;
    }
    if (Crc32(body) != record_crc) {
      MarkTruncated("segment " + segments_[segment_index_] + " record " +
                    std::to_string(records_read_) + " fails its CRC check");
      return false;
    }
    Result<JournalRecord> decoded = DecodeJournalRecord(body);
    if (!decoded.ok()) {
      MarkTruncated("segment " + segments_[segment_index_] + ": " +
                    decoded.status().message());
      return false;
    }
    *record = std::move(decoded).value();
    ++records_read_;
    return true;
  }
  return false;
}

void JournalReader::MarkTruncated(const std::string& error) {
  truncated_ = true;
  truncated_error_ = error;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // Damage invalidates the rest of the stream, later segments included.
  segment_index_ = segments_.size();
}

#endif  // _WIN32

}  // namespace cdpd
