#ifndef CDPD_SERVER_RECORDER_H_
#define CDPD_SERVER_RECORDER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "server/journal.h"

namespace cdpd {

class AdvisorService;

/// The workload flight recorder: accepts one JournalRecord per served
/// request from the transport's connection threads and persists them to
/// a rotated journal (see journal.h) from a dedicated writer thread.
///
/// The hot-path contract is that Append() NEVER touches the disk: it
/// pushes into a bounded in-memory ring under a mutex and returns. When
/// the writer falls behind and the ring fills, new frames are dropped
/// (and counted as recorder.frames_dropped) rather than stalling
/// request serving — the journal is an observability artifact, and an
/// incomplete journal beats a slow server.
///
/// The recorder also keeps the last `tail_frames` appended records in
/// memory; postmortem bundles dump this tail so the moments before a
/// crash or SIGTERM are visible even if the writer had not flushed
/// them yet.
class Recorder {
 public:
  struct Options {
    /// Journal base path; segments land at `<path>.000000`, ...
    std::string path;
    /// Service parameters stamped into every segment header so replay
    /// can rebuild an equivalent service.
    JournalMeta meta;
    /// Bounded ring between Append() and the writer thread.
    size_t ring_capacity = 4096;
    /// Rotate to a new segment once the current one passes this size.
    int64_t segment_max_bytes = 64ll << 20;
    /// fsync after this many written frames under sustained load
    /// (1 = every frame). The writer also fsyncs whenever a poll finds
    /// the ring idle, so at low request rates the durability lag is a
    /// few milliseconds regardless of this value; the threshold only
    /// bounds the lag while requests keep arriving.
    int64_t fsync_every_frames = 4096;
    /// Most-recent records kept in memory for postmortem bundles.
    size_t tail_frames = 256;
  };

  /// Opens the first segment and starts the writer thread. `registry`
  /// (optional) receives the recorder.* metrics.
  static Result<std::unique_ptr<Recorder>> Open(Options options,
                                                MetricsRegistry* registry);

  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Enqueues one record. Constant-time, never blocks on IO; drops
  /// (and counts) when the ring is full or the recorder is closed.
  void Append(JournalRecord record);

  /// Asks the writer to start a fresh segment, then waits until every
  /// record appended before this call is on disk in the old one.
  Status Rotate();

  /// Waits until every record appended before this call is written and
  /// fsynced.
  Status Flush();

  /// Flush + stop the writer thread + close the segment. Idempotent;
  /// Append() after Close() counts as a drop.
  void Close();

  /// {"recording":true,"path":...,"segment":...,counters...} — what
  /// GET /recorder serves.
  std::string StatusJson() const;

  /// The most recent records (oldest first), bounded by tail_frames.
  std::vector<JournalRecord> Tail() const;

  const std::string& path() const { return options_.path; }
  const JournalMeta& meta() const { return options_.meta; }
  int64_t frames_written() const {
    return frames_written_.load(std::memory_order_relaxed);
  }
  int64_t frames_dropped() const {
    return frames_dropped_.load(std::memory_order_relaxed);
  }

 private:
  explicit Recorder(Options options);

  void WriterLoop();
  /// Writer-thread only: closes the current segment and opens index
  /// `segment_index_ + 1`.
  void DoRotate();
  void RecordWriteError(const Status& status);

  Options options_;

  // Hot-path counters (also mirrored into the registry when present).
  std::atomic<int64_t> frames_appended_{0};
  std::atomic<int64_t> frames_written_{0};
  std::atomic<int64_t> frames_dropped_{0};
  std::atomic<int64_t> bytes_written_{0};
  std::atomic<int64_t> write_errors_{0};

  Counter* metric_frames_written_ = nullptr;
  Counter* metric_bytes_written_ = nullptr;
  Counter* metric_frames_dropped_ = nullptr;
  Counter* metric_write_errors_ = nullptr;
  Gauge* metric_ring_depth_ = nullptr;
  Gauge* metric_segments_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // Ring non-empty / control change.
  std::condition_variable done_cv_;   // Writer progress (Flush/Rotate).
  /// A vector, not a deque: the writer drains it whole by swapping in
  /// an already-grown empty vector, so steady-state appends never
  /// allocate (a deque pays a chunk allocation every few pushes).
  std::vector<JournalRecord> ring_;
  /// The batch the writer took out of ring_ and is writing. The writer
  /// fills, drains and clears it under mu_ and only reads it while
  /// unlocked, so Tail() can read it under mu_ meanwhile.
  std::vector<JournalRecord> in_flight_;
  std::deque<JournalRecord> tail_;
  bool stop_ = false;
  bool rotate_requested_ = false;
  /// Flush ticketing: a Flush() takes ticket flush_requested_+1 and
  /// waits for flush_done_ to reach it; the writer bumps flush_done_
  /// after draining the ring and fsyncing.
  int64_t flush_requested_ = 0;
  int64_t flush_done_ = 0;
  int segment_index_ = 0;
  std::string segment_path_;
  std::string last_error_;

  // Writer-thread state (no lock needed).
  JournalWriter writer_;
  int64_t unsynced_frames_ = 0;

  std::thread writer_thread_;
};

/// Writes a postmortem bundle — the artifacts a human wants when an
/// advisor_server died or misbehaved — into directory `dir` (created
/// if missing):
///
///   manifest.json       why/when the bundle was taken, git_sha, uptime
///   varz.json           the /varz snapshot (build info + all metrics)
///   slowlog.json        slowest requests with their span trees
///   metrics.prom        Prometheus exposition of every metric
///   journal_tail.json   the recorder's in-memory tail (when recording)
///
/// `recorder` may be null (no --record): the tail file is skipped.
/// Best-effort: returns the first error but writes as many files as it
/// can.
Status WritePostmortemBundle(AdvisorService* service, Recorder* recorder,
                             const std::string& dir,
                             const std::string& reason);

}  // namespace cdpd

#endif  // CDPD_SERVER_RECORDER_H_
