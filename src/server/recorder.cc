#include "server/recorder.h"

#include <fcntl.h>
#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "common/json_util.h"
#include "server/advisor_service.h"
#include "server/frame.h"

namespace cdpd {

Recorder::Recorder(Options options) : options_(std::move(options)) {}

Result<std::unique_ptr<Recorder>> Recorder::Open(Options options,
                                                 MetricsRegistry* registry) {
  if (options.path.empty()) {
    return Status::InvalidArgument("recorder journal path is empty");
  }
  if (options.ring_capacity == 0) {
    return Status::InvalidArgument("recorder ring capacity must be positive");
  }
  if (options.segment_max_bytes <= 0) {
    return Status::InvalidArgument(
        "recorder segment size must be positive bytes");
  }
  std::unique_ptr<Recorder> recorder(new Recorder(std::move(options)));

  // Resume after the last existing segment — a restarted server must
  // not overwrite the journal its predecessor left behind.
  int index = 0;
  struct stat st;
  while (::stat(JournalSegmentPath(recorder->options_.path, index).c_str(),
                &st) == 0) {
    ++index;
  }
  const std::string segment =
      JournalSegmentPath(recorder->options_.path, index);
  CDPD_RETURN_IF_ERROR(
      recorder->writer_.Open(segment, recorder->options_.meta));
  recorder->segment_index_ = index;
  recorder->segment_path_ = segment;

  if (registry != nullptr) {
    recorder->metric_frames_written_ =
        registry->counter("recorder.frames_written");
    recorder->metric_bytes_written_ =
        registry->counter("recorder.bytes_written");
    recorder->metric_frames_dropped_ =
        registry->counter("recorder.frames_dropped");
    recorder->metric_write_errors_ =
        registry->counter("recorder.write_errors");
    recorder->metric_ring_depth_ = registry->gauge("recorder.ring_depth");
    recorder->metric_segments_ = registry->gauge("recorder.segments");
    registry->gauge("recorder.enabled")->Set(1);
    recorder->metric_ring_depth_->Set(0);
    recorder->metric_segments_->Set(index + 1);
  }

  recorder->writer_thread_ = std::thread([r = recorder.get()] {
    r->WriterLoop();
  });
  return recorder;
}

Recorder::~Recorder() { Close(); }

void Recorder::Append(JournalRecord record) {
  frames_appended_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    if (metric_frames_dropped_ != nullptr) metric_frames_dropped_->Add(1);
    return;
  }
  if (ring_.size() >= options_.ring_capacity) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    if (metric_frames_dropped_ != nullptr) metric_frames_dropped_->Add(1);
    return;
  }
  ring_.push_back(std::move(record));
  if (metric_ring_depth_ != nullptr) {
    metric_ring_depth_->Set(static_cast<int64_t>(ring_.size()));
  }
  // No notify on the hot path: a futex wake per request at tens of kHz
  // costs more serving throughput than the journal is worth. The
  // writer polls the ring every couple of milliseconds; Append only
  // kicks it awake when the ring is half full (real backpressure).
  if (ring_.size() >= options_.ring_capacity / 2) work_cv_.notify_one();
}

Status Recorder::Rotate() {
  int64_t ticket = 0;
  const int64_t errors_before =
      write_errors_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return Status::FailedPrecondition("recorder is closed");
    rotate_requested_ = true;
    ticket = ++flush_requested_;
    work_cv_.notify_one();
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return flush_done_ >= ticket || stop_; });
  if (write_errors_.load(std::memory_order_relaxed) > errors_before) {
    return Status::Internal("journal rotation failed: " + last_error_);
  }
  return Status::OK();
}

Status Recorder::Flush() {
  int64_t ticket = 0;
  const int64_t errors_before =
      write_errors_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return Status::FailedPrecondition("recorder is closed");
    ticket = ++flush_requested_;
    work_cv_.notify_one();
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return flush_done_ >= ticket || stop_; });
  if (write_errors_.load(std::memory_order_relaxed) > errors_before) {
    return Status::Internal("journal flush failed: " + last_error_);
  }
  return Status::OK();
}

void Recorder::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
    work_cv_.notify_all();
    done_cv_.notify_all();
  }
  if (writer_thread_.joinable()) writer_thread_.join();
}

void Recorder::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Polling wait: Append() deliberately does not notify (see there),
    // so the writer checks for work on a short period. Control events
    // (flush, rotate, close, backpressure) still notify for promptness.
    work_cv_.wait_for(lock, std::chrono::milliseconds(2), [&] {
      return stop_ || !ring_.empty() || rotate_requested_ ||
             flush_requested_ > flush_done_;
    });
    if (!stop_ && ring_.empty() && !rotate_requested_ &&
        flush_requested_ <= flush_done_) {
      // Timed out with nothing queued. Pay the fsync for anything
      // still unsynced now, while the server is quiet — under load
      // the frame-count threshold takes over, so an fsync never sits
      // between a request and its response timing.
      if (unsynced_frames_ > 0) {
        lock.unlock();
        const Status sync = writer_.Sync();
        if (!sync.ok()) RecordWriteError(sync);
        unsynced_frames_ = 0;
        lock.lock();
      }
      continue;
    }
    const bool stopping = stop_;
    // in_flight_ is empty here; its storage ping-pongs with ring_'s, so
    // neither side reallocates once warmed up.
    in_flight_.swap(ring_);
    const bool rotate = rotate_requested_;
    rotate_requested_ = false;
    const int64_t flush_ticket = flush_requested_;
    if (metric_ring_depth_ != nullptr) metric_ring_depth_->Set(0);
    lock.unlock();

    for (const JournalRecord& record : in_flight_) {
      int64_t bytes = 0;
      const Status status = writer_.Append(record, &bytes);
      if (status.ok()) {
        frames_written_.fetch_add(1, std::memory_order_relaxed);
        bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
        if (metric_frames_written_ != nullptr) metric_frames_written_->Add(1);
        if (metric_bytes_written_ != nullptr) {
          metric_bytes_written_->Add(bytes);
        }
        if (++unsynced_frames_ >= options_.fsync_every_frames) {
          const Status sync = writer_.Sync();
          if (!sync.ok()) RecordWriteError(sync);
          unsynced_frames_ = 0;
        }
        if (writer_.bytes_written() >= options_.segment_max_bytes) {
          DoRotate();
        }
      } else {
        RecordWriteError(status);
      }
    }
    if (rotate) DoRotate();
    const bool flushing = flush_ticket > flush_done_;
    if ((flushing || stopping) && unsynced_frames_ > 0) {
      const Status sync = writer_.Sync();
      if (!sync.ok()) RecordWriteError(sync);
      unsynced_frames_ = 0;
    }

    lock.lock();
    // The in-memory tail is maintained here, not in Append(): copying
    // the record's strings on the hot path costs every request an
    // allocation + memcpy under mu_. Tail() joins tail_, in_flight_
    // and the still-pending ring_, so nothing is invisible meanwhile.
    if (options_.tail_frames > 0) {
      for (JournalRecord& record : in_flight_) {
        tail_.push_back(std::move(record));
      }
      while (tail_.size() > options_.tail_frames) tail_.pop_front();
    }
    in_flight_.clear();
    if (flushing && ring_.empty()) {
      flush_done_ = flush_ticket;
      done_cv_.notify_all();
    }
    if (stopping && ring_.empty() && !rotate_requested_) {
      flush_done_ = flush_requested_;
      done_cv_.notify_all();
      break;
    }
  }
  lock.unlock();
  const Status close = writer_.Close();
  if (!close.ok()) RecordWriteError(close);
}

void Recorder::DoRotate() {
  const Status close = writer_.Close();
  if (!close.ok()) RecordWriteError(close);
  int next_index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_index = segment_index_ + 1;
  }
  const std::string next_path = JournalSegmentPath(options_.path, next_index);
  const Status open = writer_.Open(next_path, options_.meta);
  if (!open.ok()) RecordWriteError(open);
  unsynced_frames_ = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    segment_index_ = next_index;
    segment_path_ = next_path;
  }
  if (metric_segments_ != nullptr) metric_segments_->Set(next_index + 1);
}

void Recorder::RecordWriteError(const Status& status) {
  write_errors_.fetch_add(1, std::memory_order_relaxed);
  if (metric_write_errors_ != nullptr) metric_write_errors_->Add(1);
  std::lock_guard<std::mutex> lock(mu_);
  last_error_ = status.message();
}

std::string Recorder::StatusJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"recording\":true";
  out += ",\"path\":" + JsonString(options_.path);
  out += ",\"segment\":" + JsonString(segment_path_);
  out += ",\"segment_index\":" + std::to_string(segment_index_);
  out += ",\"frames_appended\":" +
         std::to_string(frames_appended_.load(std::memory_order_relaxed));
  out += ",\"frames_written\":" +
         std::to_string(frames_written_.load(std::memory_order_relaxed));
  out += ",\"frames_dropped\":" +
         std::to_string(frames_dropped_.load(std::memory_order_relaxed));
  out += ",\"bytes_written\":" +
         std::to_string(bytes_written_.load(std::memory_order_relaxed));
  out += ",\"ring_depth\":" + std::to_string(ring_.size());
  out += ",\"ring_capacity\":" + std::to_string(options_.ring_capacity);
  out += ",\"segment_max_bytes\":" +
         std::to_string(options_.segment_max_bytes);
  out += ",\"write_errors\":" +
         std::to_string(write_errors_.load(std::memory_order_relaxed));
  out += ",\"last_error\":" + JsonString(last_error_);
  out += "}";
  return out;
}

std::vector<JournalRecord> Recorder::Tail() const {
  std::lock_guard<std::mutex> lock(mu_);
  // tail_ holds what the writer has written, in_flight_ what it is
  // writing, ring_ what it has not got to yet. Their concatenation is
  // the true append order.
  std::vector<JournalRecord> out(tail_.begin(), tail_.end());
  out.insert(out.end(), in_flight_.begin(), in_flight_.end());
  out.insert(out.end(), ring_.begin(), ring_.end());
  if (options_.tail_frames > 0 && out.size() > options_.tail_frames) {
    out.erase(out.begin(),
              out.end() - static_cast<ptrdiff_t>(options_.tail_frames));
  }
  return out;
}

namespace {

/// mkdir -p: creates every missing component of `dir`.
Status MakeDirs(const std::string& dir) {
  std::string prefix;
  size_t pos = 0;
  while (pos <= dir.size()) {
    const size_t slash = dir.find('/', pos);
    const size_t end = slash == std::string::npos ? dir.size() : slash;
    prefix = dir.substr(0, end);
    pos = end + 1;
    if (prefix.empty() || prefix == ".") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal("cannot create directory " + prefix + ": " +
                              std::strerror(errno));
    }
    if (slash == std::string::npos) break;
  }
  return Status::OK();
}

Status WriteWholeFile(const std::string& path, std::string_view content) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create " + path + ": " +
                            std::strerror(errno));
  }
  const Status status = WriteExact(fd, content.data(), content.size());
  ::close(fd);
  return status;
}

/// `s` truncated to `limit` bytes with a marker — postmortem files are
/// for humans; a multi-megabyte ingest payload would drown them.
std::string Clipped(std::string_view s, size_t limit = 2048) {
  if (s.size() <= limit) return std::string(s);
  return std::string(s.substr(0, limit)) + "...[" +
         std::to_string(s.size() - limit) + " bytes clipped]";
}

std::string TailToJson(const std::vector<JournalRecord>& tail) {
  std::string out = "{\"frames\":[";
  for (size_t i = 0; i < tail.size(); ++i) {
    const JournalRecord& r = tail[i];
    if (i > 0) out += ",";
    out += "{\"op\":" + JsonString(ServerOpName(r.opcode));
    out += ",\"request_id\":" + JsonString(r.request_id);
    out += ",\"wire_status\":" + std::to_string(static_cast<int>(r.wire_status));
    out += ",\"window_epoch\":" + std::to_string(r.window_epoch);
    out += ",\"wall_us\":" + std::to_string(r.wall_us);
    out += ",\"duration_us\":" + std::to_string(r.duration_us);
    out += ",\"payload_bytes\":" + std::to_string(r.payload.size());
    out += ",\"response_bytes\":" + std::to_string(r.response.size());
    out += ",\"payload\":" + JsonString(Clipped(r.payload));
    out += ",\"response\":" + JsonString(Clipped(r.response));
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace

Status WritePostmortemBundle(AdvisorService* service, Recorder* recorder,
                             const std::string& dir,
                             const std::string& reason) {
  CDPD_RETURN_IF_ERROR(MakeDirs(dir));
  Status first_error = Status::OK();
  const auto keep = [&first_error](const Status& status) {
    if (first_error.ok() && !status.ok()) first_error = status;
  };

  const int64_t unix_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::string manifest = "{\"reason\":" + JsonString(reason);
  manifest += ",\"unix_time_us\":" + std::to_string(unix_us);
  manifest += ",\"git_sha\":" + JsonString(BuildGitSha());
  manifest += ",\"build_type\":" + JsonString(BuildTypeName());
  manifest += ",\"uptime_seconds\":" + JsonDouble(service->UptimeSeconds());
  manifest += ",\"recorder\":";
  manifest += recorder != nullptr ? recorder->StatusJson()
                                  : std::string("{\"recording\":false}");
  manifest += "}";
  keep(WriteWholeFile(dir + "/manifest.json", manifest));

  keep(WriteWholeFile(dir + "/varz.json", service->VarzJson()));
  keep(WriteWholeFile(dir + "/slowlog.json", service->slow_log()->ToJson()));
  keep(WriteWholeFile(dir + "/metrics.prom",
                      service->StatsSnapshot().ToPrometheus()));
  if (recorder != nullptr) {
    keep(WriteWholeFile(dir + "/journal_tail.json",
                        TailToJson(recorder->Tail())));
  }
  return first_error;
}

}  // namespace cdpd
