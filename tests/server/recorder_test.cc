// The flight recorder's in-memory half: the bounded ring between the
// serving threads and the writer thread, flush/rotate semantics, the
// postmortem tail, the recorder.* metrics, and the bundle writer.

#include "server/recorder.h"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "server/advisor_service.h"
#include "server/journal.h"

namespace cdpd {
namespace {

JournalRecord SampleRecord(int i) {
  JournalRecord record;
  record.opcode = 1;  // INGEST.
  record.window_epoch = static_cast<uint64_t>(i);
  record.mono_us = i * 1000;
  record.wall_us = i * 1000;
  record.duration_us = 10;
  record.request_id = "rec-" + std::to_string(i);
  record.payload = "SELECT a FROM t WHERE a = " + std::to_string(i) + ";";
  record.response = "{\"accepted\":1}";
  return record;
}

/// Removes every `<base>.NNNNNN` segment — the recorder deliberately
/// resumes after existing segments, so a journal left by a previous
/// test run would otherwise leak into this one.
void RemoveJournalSegments(const std::string& base) {
  for (int i = 0;; ++i) {
    if (std::remove(JournalSegmentPath(base, i).c_str()) != 0) break;
  }
}

Recorder::Options TestOptions(const std::string& name) {
  Recorder::Options options;
  options.path = ::testing::TempDir() + "/" + name;
  options.meta.rows = 50'000;
  options.meta.method = "optimal";
  RemoveJournalSegments(options.path);
  return options;
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  return content;
}

TEST(RecorderTest, AppendsFlushAndReadBackThroughTheJournal) {
  MetricsRegistry registry;
  auto recorder = Recorder::Open(TestOptions("rec_roundtrip"), &registry);
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  Recorder& rec = *recorder.value();

  for (int i = 0; i < 8; ++i) rec.Append(SampleRecord(i));
  ASSERT_TRUE(rec.Flush().ok());
  EXPECT_EQ(rec.frames_written(), 8);
  EXPECT_EQ(rec.frames_dropped(), 0);

  JournalReader reader;
  ASSERT_TRUE(reader.Open(rec.path()).ok());
  EXPECT_EQ(reader.meta().rows, 50'000);
  JournalRecord record;
  int count = 0;
  while (reader.Next(&record)) {
    EXPECT_EQ(record.request_id, "rec-" + std::to_string(count));
    ++count;
  }
  EXPECT_EQ(count, 8);
  EXPECT_FALSE(reader.truncated());

  // The registry mirrors the counters.
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("recorder.frames_written"), 8);
  EXPECT_EQ(snapshot.CounterValue("recorder.frames_dropped"), 0);
  EXPECT_GT(snapshot.CounterValue("recorder.bytes_written"), 0);
  EXPECT_EQ(snapshot.GaugeValue("recorder.enabled"), 1);

  rec.Close();
}

TEST(RecorderTest, SizeBasedRotationProducesOrderedSegments) {
  Recorder::Options options = TestOptions("rec_rotation");
  options.segment_max_bytes = 256;  // A few frames per segment.
  auto recorder = Recorder::Open(std::move(options), nullptr);
  ASSERT_TRUE(recorder.ok());
  Recorder& rec = *recorder.value();

  constexpr int kFrames = 24;
  for (int i = 0; i < kFrames; ++i) rec.Append(SampleRecord(i));
  ASSERT_TRUE(rec.Flush().ok());
  rec.Close();

  JournalReader reader;
  ASSERT_TRUE(reader.Open(rec.path()).ok());
  EXPECT_GT(reader.segments().size(), 1u);
  JournalRecord record;
  int count = 0;
  while (reader.Next(&record)) {
    // Rotation preserves global order across segment boundaries.
    EXPECT_EQ(record.window_epoch, static_cast<uint64_t>(count));
    ++count;
  }
  EXPECT_EQ(count, kFrames);
  EXPECT_FALSE(reader.truncated());
}

TEST(RecorderTest, ExplicitRotateStartsAFreshSegment) {
  auto recorder = Recorder::Open(TestOptions("rec_manual_rotate"), nullptr);
  ASSERT_TRUE(recorder.ok());
  Recorder& rec = *recorder.value();

  rec.Append(SampleRecord(0));
  ASSERT_TRUE(rec.Rotate().ok());
  rec.Append(SampleRecord(1));
  ASSERT_TRUE(rec.Flush().ok());
  EXPECT_NE(rec.StatusJson().find("\"segment_index\":1"), std::string::npos)
      << rec.StatusJson();
  rec.Close();

  JournalReader reader;
  ASSERT_TRUE(reader.Open(rec.path()).ok());
  ASSERT_EQ(reader.segments().size(), 2u);
  JournalRecord record;
  EXPECT_TRUE(reader.Next(&record));
  EXPECT_TRUE(reader.Next(&record));
  EXPECT_FALSE(reader.Next(&record));
  EXPECT_FALSE(reader.truncated());
}

TEST(RecorderTest, ReopeningABaseResumesAfterTheLastSegment) {
  const Recorder::Options options = TestOptions("rec_resume");
  {
    auto first = Recorder::Open(options, nullptr);
    ASSERT_TRUE(first.ok());
    (*first)->Append(SampleRecord(0));
    ASSERT_TRUE((*first)->Flush().ok());
    (*first)->Close();
  }
  // A restarted server must not overwrite its predecessor's journal.
  {
    auto second = Recorder::Open(options, nullptr);
    ASSERT_TRUE(second.ok());
    EXPECT_NE((*second)->StatusJson().find("\"segment_index\":1"),
              std::string::npos)
        << (*second)->StatusJson();
    (*second)->Append(SampleRecord(1));
    ASSERT_TRUE((*second)->Flush().ok());
    (*second)->Close();
  }
  JournalReader reader;
  ASSERT_TRUE(reader.Open(options.path).ok());
  EXPECT_EQ(reader.segments().size(), 2u);
  JournalRecord record;
  int count = 0;
  while (reader.Next(&record)) ++count;
  EXPECT_EQ(count, 2);
}

TEST(RecorderTest, AppendAfterCloseDropsAndCounts) {
  MetricsRegistry registry;
  auto recorder = Recorder::Open(TestOptions("rec_closed"), &registry);
  ASSERT_TRUE(recorder.ok());
  Recorder& rec = *recorder.value();
  rec.Append(SampleRecord(0));
  rec.Close();
  rec.Append(SampleRecord(1));
  rec.Append(SampleRecord(2));
  EXPECT_EQ(rec.frames_written(), 1);
  EXPECT_EQ(rec.frames_dropped(), 2);
  EXPECT_EQ(registry.Snapshot().CounterValue("recorder.frames_dropped"), 2);
  EXPECT_FALSE(rec.Flush().ok());  // Closed: FailedPrecondition.
}

TEST(RecorderTest, TailKeepsTheMostRecentFramesOldestFirst) {
  Recorder::Options options = TestOptions("rec_tail");
  options.tail_frames = 3;
  auto recorder = Recorder::Open(std::move(options), nullptr);
  ASSERT_TRUE(recorder.ok());
  Recorder& rec = *recorder.value();
  for (int i = 0; i < 7; ++i) rec.Append(SampleRecord(i));
  const std::vector<JournalRecord> tail = rec.Tail();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].request_id, "rec-4");
  EXPECT_EQ(tail[2].request_id, "rec-6");
  rec.Close();
}

TEST(RecorderTest, TailIncludesTheBatchTheWriterIsWriting) {
  // The writer takes the ring's records out under the lock and writes
  // (and here fsyncs) them without it. A Tail() taken as soon as a
  // record is counted written, before the writer moves it into the
  // tail, must still end with it.
  Recorder::Options options = TestOptions("rec_tail_in_flight");
  options.fsync_every_frames = 1;
  auto recorder = Recorder::Open(std::move(options), nullptr);
  ASSERT_TRUE(recorder.ok());
  Recorder& rec = *recorder.value();
  for (int i = 0; i < 100; ++i) {
    rec.Append(SampleRecord(i));
    while (rec.frames_written() <= i) std::this_thread::yield();
    const std::vector<JournalRecord> tail = rec.Tail();
    ASSERT_FALSE(tail.empty()) << i;
    EXPECT_EQ(tail.back().request_id, "rec-" + std::to_string(i));
  }
  rec.Close();
}

TEST(RecorderTest, StatusJsonDescribesTheLiveRecorder) {
  auto recorder = Recorder::Open(TestOptions("rec_status"), nullptr);
  ASSERT_TRUE(recorder.ok());
  Recorder& rec = *recorder.value();
  rec.Append(SampleRecord(0));
  ASSERT_TRUE(rec.Flush().ok());
  const std::string json = rec.StatusJson();
  EXPECT_NE(json.find("\"recording\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"segment\":"), std::string::npos);
  EXPECT_NE(json.find("\"frames_appended\":1"), std::string::npos);
  EXPECT_NE(json.find("\"frames_written\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ring_capacity\":4096"), std::string::npos);
  EXPECT_NE(json.find("\"write_errors\":0"), std::string::npos);
  rec.Close();
}

TEST(RecorderTest, ConcurrentAppendersLoseNothingWithinTheRingBound) {
  auto recorder = Recorder::Open(TestOptions("rec_concurrent"), nullptr);
  ASSERT_TRUE(recorder.ok());
  Recorder& rec = *recorder.value();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.Append(SampleRecord(t * kPerThread + i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_TRUE(rec.Flush().ok());
  // The default ring (4096) never filled, so every frame is durable.
  EXPECT_EQ(rec.frames_written() + rec.frames_dropped(),
            kThreads * kPerThread);
  EXPECT_EQ(rec.frames_dropped(), 0);
  rec.Close();

  JournalReader reader;
  ASSERT_TRUE(reader.Open(rec.path()).ok());
  JournalRecord record;
  int count = 0;
  while (reader.Next(&record)) ++count;
  EXPECT_EQ(count, kThreads * kPerThread);
  EXPECT_FALSE(reader.truncated());
}

TEST(RecorderTest, PostmortemBundleWritesTheFullArtifactSet) {
  ServiceOptions service_options;
  service_options.rows = 50'000;
  service_options.block_size = 5;
  service_options.num_threads = 2;
  AdvisorService service(std::move(service_options));
  ASSERT_TRUE(
      service.IngestSql("SELECT a FROM t WHERE a = 1;").ok());

  auto recorder = Recorder::Open(TestOptions("rec_bundle"), nullptr);
  ASSERT_TRUE(recorder.ok());
  (*recorder)->Append(SampleRecord(0));

  const std::string dir = ::testing::TempDir() + "/rec_bundle_out";
  const Status status = WritePostmortemBundle(&service, recorder->get(), dir,
                                              "unit test");
  ASSERT_TRUE(status.ok()) << status.ToString();

  const std::string manifest = ReadWholeFile(dir + "/manifest.json");
  EXPECT_NE(manifest.find("\"reason\":\"unit test\""), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"git_sha\":"), std::string::npos);
  EXPECT_NE(manifest.find("\"uptime_seconds\":"), std::string::npos);
  const std::string varz = ReadWholeFile(dir + "/varz.json");
  EXPECT_NE(varz.find("\"counters\""), std::string::npos);
  EXPECT_NE(varz.find("\"build_type\":"), std::string::npos);
  EXPECT_NE(ReadWholeFile(dir + "/slowlog.json").find("\"entries\""),
            std::string::npos);
  EXPECT_NE(ReadWholeFile(dir + "/metrics.prom").find("# TYPE"),
            std::string::npos);
  const std::string tail = ReadWholeFile(dir + "/journal_tail.json");
  EXPECT_NE(tail.find("\"rec-0\""), std::string::npos) << tail;

  (*recorder)->Close();

  // Without a recorder the tail file is skipped but the rest lands.
  const std::string bare_dir = ::testing::TempDir() + "/rec_bundle_bare";
  ASSERT_TRUE(
      WritePostmortemBundle(&service, nullptr, bare_dir, "no recorder")
          .ok());
  EXPECT_NE(ReadWholeFile(bare_dir + "/manifest.json")
                .find("\"recording\":false"),
            std::string::npos);
  EXPECT_EQ(ReadWholeFile(bare_dir + "/journal_tail.json"), "");
}

}  // namespace
}  // namespace cdpd
