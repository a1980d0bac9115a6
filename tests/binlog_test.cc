#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "log/log_store.h"
#include "polarfs/polarfs.h"
#include "rowstore/binlog.h"

namespace imci {
namespace {

using Event = BinlogWriter::Event;

Event MakeEvent(Event::Op op, TableId table, int64_t pk,
                std::string image = "") {
  Event e;
  e.op = op;
  e.table_id = table;
  e.pk = pk;
  e.row_image = std::move(image);
  return e;
}

struct ReplayedTxn {
  Tid tid;
  Vid vid;
  std::vector<Event> events;
};

/// One durable commit: the write-through append, then the group-commit
/// sync that covers it.
void CommitDurably(BinlogWriter* binlog, Tid tid, Vid vid, uint64_t ts,
                   const std::vector<Event>& events) {
  Lsn lsn = 0;
  ASSERT_TRUE(binlog->EnqueueTxn(tid, vid, ts, events, &lsn).ok());
  ASSERT_TRUE(binlog->SyncTo(lsn).ok());
}

std::vector<ReplayedTxn> ReplayAll(PolarFs* fs) {
  std::vector<ReplayedTxn> out;
  BinlogWriter::Replay(
      fs->log("binlog"),
      [&](Tid tid, Vid vid, const std::vector<Event>& events) {
        out.push_back({tid, vid, events});
      });
  return out;
}

TEST(BinlogTest, EmptyLogReplaysNothing) {
  PolarFs fs;
  EXPECT_EQ(BinlogWriter::Replay(fs.log("binlog"),
                                 [](Tid, Vid, const std::vector<Event>&) {
                                   FAIL() << "nothing to replay";
                                 }),
            0u);
}

TEST(BinlogTest, RoundTripPreservesCommitOrderAndPayloads) {
  PolarFs fs;
  BinlogWriter binlog(fs.log("binlog"));
  CommitDurably(&binlog, 11, 1, 1001,
                {MakeEvent(Event::Op::kInsert, 1, 100, "row-100"),
                 MakeEvent(Event::Op::kUpdate, 1, 100, "row-100v2")});
  CommitDurably(&binlog, 12, 2, 1002, {MakeEvent(Event::Op::kDelete, 2, 7)});
  CommitDurably(&binlog, 13, 3, 1003, {});  // empty txn: still a commit record
  EXPECT_EQ(binlog.txns_written(), 3u);
  EXPECT_EQ(binlog.last_seq(), 3u);

  auto txns = ReplayAll(&fs);
  ASSERT_EQ(txns.size(), 3u);
  EXPECT_EQ(txns[0].tid, 11u);
  EXPECT_EQ(txns[0].vid, 1u);
  ASSERT_EQ(txns[0].events.size(), 2u);
  EXPECT_EQ(txns[0].events[0].op, Event::Op::kInsert);
  EXPECT_EQ(txns[0].events[0].table_id, 1u);
  EXPECT_EQ(txns[0].events[0].pk, 100);
  EXPECT_EQ(txns[0].events[0].row_image, "row-100");
  EXPECT_EQ(txns[0].events[1].op, Event::Op::kUpdate);
  EXPECT_EQ(txns[0].events[1].row_image, "row-100v2");
  EXPECT_EQ(txns[1].tid, 12u);
  EXPECT_EQ(txns[1].vid, 2u);
  ASSERT_EQ(txns[1].events.size(), 1u);
  EXPECT_EQ(txns[1].events[0].op, Event::Op::kDelete);
  EXPECT_EQ(txns[1].events[0].pk, 7);
  EXPECT_TRUE(txns[1].events[0].row_image.empty());
  EXPECT_EQ(txns[2].tid, 13u);
  EXPECT_TRUE(txns[2].events.empty());
}

TEST(BinlogTest, EveryCommitPaysItsOwnFsync) {
  PolarFs fs;
  BinlogWriter binlog(fs.log("binlog"));
  const uint64_t before = fs.fsync_count();
  CommitDurably(&binlog, 1, 1, 0, {MakeEvent(Event::Op::kInsert, 1, 1, "x")});
  CommitDurably(&binlog, 2, 2, 0, {MakeEvent(Event::Op::kInsert, 1, 2, "y")});
  EXPECT_EQ(fs.fsync_count(), before + 2);
}

TEST(BinlogTest, TruncatedTailStopsReplayAtLastGoodRecord) {
  PolarFs::Options opt;
  opt.log_segment_bytes = 1 << 16;  // all five records share one segment
  PolarFs fs(opt);
  BinlogWriter binlog(fs.log("binlog"));
  for (int i = 1; i <= 5; ++i) {
    CommitDurably(&binlog, i, i, 0,
                  {MakeEvent(Event::Op::kInsert, 1, i,
                             "payload-" + std::to_string(i))});
  }
  // Simulated crash mid-write: the segment's durable tail loses its last
  // bytes, tearing the final record's frame.
  const std::string seg = LogStore::SegmentFileName("binlog", 1);
  std::string tail;
  ASSERT_TRUE(fs.ReadFile(seg, &tail).ok());
  ASSERT_TRUE(fs.WriteFile(seg, tail.substr(0, tail.size() - 3)).ok());
  (void)fs.ReopenLogs();

  auto txns = ReplayAll(&fs);
  ASSERT_EQ(txns.size(), 4u);
  EXPECT_EQ(txns.back().tid, 4u);
  EXPECT_EQ(txns.back().events[0].row_image, "payload-4");
}

TEST(BinlogTest, SeqResumesAfterRecoveryOnSegmentedLayout) {
  PolarFs::Options opt;
  opt.log_segment_bytes = 64;  // force several segments
  PolarFs fs(opt);
  {
    BinlogWriter binlog(fs.log("binlog"));
    for (int i = 1; i <= 6; ++i) {
      CommitDurably(&binlog, i, i, 0,
                    {MakeEvent(Event::Op::kInsert, 1, i,
                               "old-" + std::to_string(i))});
    }
  }
  ASSERT_GE(fs.log("binlog")->segment_count(), 2u);
  // Crash tears the newest segment; recovery trims to the last good commit.
  auto files = fs.ListFiles("log/binlog/seg_");
  std::sort(files.begin(), files.end());
  std::string data;
  ASSERT_TRUE(fs.ReadFile(files.back(), &data).ok());
  ASSERT_TRUE(
      fs.WriteFile(files.back(), data.substr(0, data.size() - 5)).ok());
  (void)fs.ReopenLogs();

  const size_t recovered =
      BinlogWriter::Replay(fs.log("binlog"),
                           [](Tid, Vid, const std::vector<Event>&) {});
  ASSERT_LT(recovered, 6u);
  ASSERT_GT(recovered, 0u);

  // A writer attached post-recovery resumes right after the recovered tail
  // instead of rescanning files or overwriting history (no O(files) seeding:
  // the LogStore's recovered LSN *is* the resume point).
  BinlogWriter resumed(fs.log("binlog"));
  EXPECT_EQ(resumed.last_seq(), recovered);
  CommitDurably(&resumed, 100, 100, 0,
                {MakeEvent(Event::Op::kInsert, 1, 100, "new-100")});

  auto txns = ReplayAll(&fs);
  ASSERT_EQ(txns.size(), recovered + 1);
  EXPECT_EQ(txns[0].events[0].row_image, "old-1");  // history intact
  EXPECT_EQ(txns.back().tid, 100u);
  EXPECT_EQ(txns.back().events[0].row_image, "new-100");
}

TEST(BinlogTest, DecodeRejectsShortBuffers) {
  Tid tid;
  Vid vid;
  uint64_t ts;
  std::vector<Event> events;
  EXPECT_FALSE(BinlogWriter::DecodeTxn("", &tid, &vid, &ts, &events));
  EXPECT_FALSE(BinlogWriter::DecodeTxn("tiny", &tid, &vid, &ts, &events));
  EXPECT_FALSE(BinlogWriter::DecodeTxn(std::string(35, '\0'), &tid, &vid,
                                       &ts, &events));
}

TEST(BinlogTest, DecodeRejectsFlippedPayloadByte) {
  PolarFs fs;
  BinlogWriter binlog(fs.log("binlog"));
  CommitDurably(&binlog, 1, 1, 0,
                {MakeEvent(Event::Op::kInsert, 1, 1, "payload")});
  std::vector<std::string> raw;
  fs.log("binlog")->Read(0, 1, &raw);
  ASSERT_EQ(raw.size(), 1u);
  Tid tid;
  Vid vid;
  uint64_t ts;
  std::vector<Event> events;
  ASSERT_TRUE(BinlogWriter::DecodeTxn(raw[0], &tid, &vid, &ts, &events));
  raw[0][30] ^= 0x5a;  // in-record corruption below the frame layer
  EXPECT_FALSE(BinlogWriter::DecodeTxn(raw[0], &tid, &vid, &ts, &events));
}

}  // namespace
}  // namespace imci
