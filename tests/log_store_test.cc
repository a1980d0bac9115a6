#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "log/log_store.h"
#include "polarfs/polarfs.h"

namespace imci {
namespace {

/// A PolarFs with small log segments so a handful of records spans several
/// segment files — every boundary case is reachable with tiny logs.
PolarFs::Options SmallSegments(size_t bytes = 64) {
  PolarFs::Options opt;
  opt.log_segment_bytes = bytes;
  return opt;
}

std::vector<std::string> ReadAll(const LogStore* log) {
  std::vector<std::string> out;
  log->Read(0, log->written_lsn(), &out);
  return out;
}

TEST(LogStoreTest, AppendAndReadWithDenseLsns) {
  PolarFs fs;
  LogStore* log = fs.log("redo");
  EXPECT_EQ(log->written_lsn(), 0u);
  Lsn last = log->Append({"a", "b", "c"}, /*durable=*/true);
  EXPECT_EQ(last, 3u);
  EXPECT_EQ(log->written_lsn(), 3u);
  EXPECT_EQ(fs.fsync_count(), 1u);
  std::vector<std::string> out;
  Lsn read = log->Read(0, 10, &out);
  EXPECT_EQ(read, 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "a");
  EXPECT_EQ(out[2], "c");
  // Partial range (from exclusive, to inclusive).
  out.clear();
  log->Read(1, 2, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "b");
}

TEST(LogStoreTest, WaitForWakesOnAppend) {
  PolarFs fs;
  LogStore* log = fs.log("redo");
  std::thread appender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    log->Append({"hello"}, false);
  });
  Lsn got = log->WaitFor(0, 2'000'000);
  EXPECT_GE(got, 1u);
  appender.join();
  EXPECT_EQ(log->WaitFor(5, 20'000), 1u);  // times out below the target
}

TEST(LogStoreTest, ConcurrentAppendsAssignDenseLsns) {
  PolarFs fs(SmallSegments(256));
  LogStore* log = fs.log("redo");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) log->Append({"r"}, false);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log->written_lsn(), 800u);
  EXPECT_EQ(ReadAll(log).size(), 800u);
  EXPECT_GT(log->segment_count(), 1u);
}

TEST(LogStoreTest, SegmentRolloverMidBatchKeepsRecordsIntact) {
  PolarFs fs(SmallSegments(48));
  LogStore* log = fs.log("redo");
  // One transaction's batch of records is larger than a whole segment: the
  // roll must happen at record boundaries, never inside a record.
  std::vector<std::string> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back("record-" + std::to_string(i) + "-payload");
  }
  EXPECT_EQ(log->Append(batch, true), 10u);
  EXPECT_GE(log->segment_count(), 3u);
  auto out = ReadAll(log);
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], "record-" + std::to_string(i) + "-payload");
  }
  // The durable layout must agree with the in-memory index after reopen.
  ASSERT_TRUE(log->Open().ok());
  EXPECT_EQ(log->written_lsn(), 10u);
  EXPECT_EQ(ReadAll(log), out);
}

TEST(LogStoreTest, TruncateBelowAtAndAboveTheWatermark) {
  PolarFs fs(SmallSegments(32));
  LogStore* log = fs.log("redo");
  for (int i = 1; i <= 12; ++i) {
    log->Append({"payload-" + std::to_string(i)}, false);
  }
  const size_t all_segments = fs.ListFiles("log/redo/seg_").size();
  ASSERT_GE(all_segments, 4u);

  // Below the first sealed boundary: nothing is recyclable yet.
  (void)log->Truncate(0);
  EXPECT_EQ(log->truncated_lsn(), 0u);
  EXPECT_EQ(fs.ListFiles("log/redo/seg_").size(), all_segments);

  // Mid-log watermark: only whole segments at or below it are recycled, so
  // the cut never outruns the watermark.
  (void)log->Truncate(5);
  const Lsn cut = log->truncated_lsn();
  EXPECT_GT(cut, 0u);
  EXPECT_LE(cut, 5u);
  EXPECT_LT(fs.ListFiles("log/redo/seg_").size(), all_segments);
  std::vector<std::string> out;
  EXPECT_EQ(log->Read(0, 100, &out), 12u);  // recycled prefix skipped
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), "payload-" + std::to_string(cut + 1));

  // At/above the written tail: every sealed segment goes, the active one
  // stays, and the log keeps appending with dense LSNs.
  (void)log->Truncate(log->written_lsn());
  EXPECT_EQ(fs.ListFiles("log/redo/seg_").size(), 1u);
  EXPECT_EQ(log->Append({"payload-13"}, false), 13u);
  out.clear();
  log->Read(log->truncated_lsn(), 100, &out);
  EXPECT_EQ(out.back(), "payload-13");
}

TEST(LogStoreTest, TruncationWatermarkSurvivesReopen) {
  PolarFs fs(SmallSegments(32));
  LogStore* log = fs.log("redo");
  for (int i = 1; i <= 8; ++i) log->Append({"r" + std::to_string(i)}, false);
  (void)log->Truncate(4);
  const Lsn cut = log->truncated_lsn();
  ASSERT_GT(cut, 0u);
  (void)fs.ReopenLogs();
  EXPECT_EQ(log->truncated_lsn(), cut);
  EXPECT_EQ(log->written_lsn(), 8u);
  EXPECT_EQ(log->Append({"r9"}, false), 9u);
}

TEST(LogStoreTest, TornTailInsideSegmentIsTrimmedOnReopen) {
  PolarFs fs(SmallSegments(1 << 16));  // one segment holds everything
  LogStore* log = fs.log("redo");
  for (int i = 1; i <= 5; ++i) {
    log->Append({"payload-" + std::to_string(i)}, true);
  }
  // Crash mid-write: the durable tail loses its last bytes.
  const std::string seg = LogStore::SegmentFileName("redo", 1);
  std::string data;
  ASSERT_TRUE(fs.ReadFile(seg, &data).ok());
  ASSERT_TRUE(fs.WriteFile(seg, data.substr(0, data.size() - 3)).ok());

  (void)fs.ReopenLogs();
  EXPECT_EQ(log->written_lsn(), 4u);
  auto out = ReadAll(log);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.back(), "payload-4");
  // The log continues after the tear with dense LSNs.
  EXPECT_EQ(log->Append({"payload-5b"}, true), 5u);
  EXPECT_EQ(ReadAll(log).back(), "payload-5b");
}

TEST(LogStoreTest, TornTailOnSegmentBoundaryFallsBackToPreviousSegment) {
  PolarFs fs(SmallSegments(32));
  LogStore* log = fs.log("redo");
  for (int i = 1; i <= 6; ++i) {
    log->Append({"payload-" + std::to_string(i)}, true);
  }
  ASSERT_GE(log->segment_count(), 2u);
  // The tear lands exactly on a segment boundary: the newest segment file is
  // lost in its entirety (zero bytes survived the crash).
  auto files = fs.ListFiles("log/redo/seg_");
  std::sort(files.begin(), files.end());
  const std::string last_seg = files.back();
  ASSERT_TRUE(fs.WriteFile(last_seg, "").ok());

  (void)fs.ReopenLogs();
  // Recovery ends at the previous segment's last record and reclaims the
  // empty file.
  const Lsn tail = log->written_lsn();
  ASSERT_LT(tail, 6u);
  ASSERT_GT(tail, 0u);
  auto out = ReadAll(log);
  ASSERT_EQ(out.size(), tail - log->truncated_lsn());
  EXPECT_EQ(out.back(), "payload-" + std::to_string(tail));
  std::string gone;
  EXPECT_TRUE(fs.ReadFile(last_seg, &gone).IsNotFound());
  // New appends restart a fresh segment at the recovered tail.
  EXPECT_EQ(log->Append({"after-crash"}, true), tail + 1);
  EXPECT_EQ(ReadAll(log).back(), "after-crash");
}

TEST(LogStoreTest, CorruptedMiddleRecordCutsRecoveryAndDropsOrphans) {
  PolarFs fs(SmallSegments(32));
  LogStore* log = fs.log("redo");
  for (int i = 1; i <= 9; ++i) {
    log->Append({"payload-" + std::to_string(i)}, true);
  }
  const size_t before = fs.ListFiles("log/redo/seg_").size();
  ASSERT_GE(before, 3u);
  // Flip a byte in the middle of the *second* segment: recovery must stop
  // there and delete every later (now unreachable) segment.
  auto files = fs.ListFiles("log/redo/seg_");
  std::sort(files.begin(), files.end());
  std::string data;
  ASSERT_TRUE(fs.ReadFile(files[1], &data).ok());
  data[data.size() / 2] ^= 0x5a;
  ASSERT_TRUE(fs.WriteFile(files[1], std::move(data)).ok());

  (void)fs.ReopenLogs();
  const Lsn tail = log->written_lsn();
  EXPECT_LT(tail, 9u);
  EXPECT_GE(tail, 2u);  // the first segment survived intact
  EXPECT_LT(fs.ListFiles("log/redo/seg_").size(), before);
  auto out = ReadAll(log);
  EXPECT_EQ(out.size(), tail);
  EXPECT_EQ(out.back(), "payload-" + std::to_string(tail));
  EXPECT_EQ(log->Append({"fresh"}, true), tail + 1);
}

}  // namespace
}  // namespace imci
