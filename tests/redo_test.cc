#include <gtest/gtest.h>

#include "polarfs/polarfs.h"
#include "redo/redo_record.h"
#include "redo/redo_writer.h"

namespace imci {
namespace {

RedoRecord RoundTrip(const RedoRecord& rec) {
  std::string buf;
  rec.Serialize(&buf);
  EXPECT_EQ(buf.size(), rec.ByteSize());
  RedoRecord out;
  EXPECT_TRUE(RedoRecord::Deserialize(buf.data(), buf.size(), &out).ok());
  return out;
}

TEST(RedoRecordTest, InsertRoundTrip) {
  RedoRecord rec;
  rec.type = RedoType::kInsert;
  rec.lsn = 42;
  rec.prev_lsn = 40;
  rec.tid = 7;
  rec.table_id = 3;
  rec.page_id = 99;
  rec.slot_id = 5;
  rec.after_image = "row-bytes";
  RedoRecord out = RoundTrip(rec);
  EXPECT_EQ(out.type, RedoType::kInsert);
  EXPECT_EQ(out.lsn, 42u);
  EXPECT_EQ(out.tid, 7u);
  EXPECT_EQ(out.page_id, 99u);
  EXPECT_EQ(out.slot_id, 5u);
  EXPECT_EQ(out.after_image, "row-bytes");
}

TEST(RedoRecordTest, UpdateCarriesDiff) {
  RedoRecord rec;
  rec.type = RedoType::kUpdate;
  rec.tid = 1;
  rec.page_id = 4;
  rec.slot_id = 2;
  rec.diff = RowDiff::Compute("aaaaaaaa", "aaaXaaaa");
  RedoRecord out = RoundTrip(rec);
  std::string applied;
  ASSERT_TRUE(out.diff.Apply("aaaaaaaa", &applied).ok());
  EXPECT_EQ(applied, "aaaXaaaa");
}

TEST(RedoRecordTest, SmoCarriesPageImages) {
  RedoRecord rec;
  rec.type = RedoType::kSmo;
  rec.tid = 0;
  rec.page_images.emplace_back(10, "left");
  rec.page_images.emplace_back(11, "right");
  rec.page_images.emplace_back(2, "parent");
  RedoRecord out = RoundTrip(rec);
  ASSERT_EQ(out.page_images.size(), 3u);
  EXPECT_EQ(out.page_images[1].first, 11u);
  EXPECT_EQ(out.page_images[1].second, "right");
}

TEST(RedoRecordTest, CommitCarriesVidAndTimestamp) {
  RedoRecord rec;
  rec.type = RedoType::kCommit;
  rec.tid = 12;
  rec.commit_vid = 77;
  rec.commit_ts_us = 123456789;
  RedoRecord out = RoundTrip(rec);
  EXPECT_EQ(out.commit_vid, 77u);
  EXPECT_EQ(out.commit_ts_us, 123456789u);
}

TEST(RedoRecordTest, CorruptBufferRejected) {
  RedoRecord rec;
  rec.type = RedoType::kInsert;
  rec.after_image = "abc";
  std::string buf;
  rec.Serialize(&buf);
  RedoRecord out;
  EXPECT_FALSE(
      RedoRecord::Deserialize(buf.data(), buf.size() - 2, &out).ok());
  EXPECT_FALSE(RedoRecord::Deserialize(buf.data(), 3, &out).ok());
}

TEST(RedoWriterTest, AssignsMonotonicLsns) {
  PolarFs fs;
  RedoWriter writer(fs.log("redo"));
  std::vector<RedoRecord> dml(2);
  dml[0].type = dml[1].type = RedoType::kInsert;
  RedoRecord c;
  c.type = RedoType::kCommit;
  Lsn last = 0;
  ASSERT_TRUE(writer.Append(dml, &last).ok());
  EXPECT_EQ(last, 2u);
  ASSERT_TRUE(writer.Append({&c, 1}, &last).ok());
  ASSERT_TRUE(writer.SyncTo(last).ok());
  EXPECT_EQ(dml[0].lsn, 1u);
  EXPECT_EQ(dml[1].lsn, 2u);
  EXPECT_EQ(c.lsn, 3u);
  EXPECT_EQ(writer.written_lsn(), 3u);
  EXPECT_EQ(fs.fsync_count(), 1u);  // only the commit was made durable

  RedoReader reader(fs.log("redo"));
  std::vector<RedoRecord> records;
  EXPECT_EQ(reader.Read(0, 100, &records), 3u);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].type, RedoType::kCommit);
}

TEST(RedoWriterTest, WriterAttachedAfterRecoveryContinuesLsns) {
  PolarFs fs;
  {
    RedoWriter writer(fs.log("redo"));
    RedoRecord a;
    a.type = RedoType::kInsert;
    a.after_image = "x";
    Lsn last = 0;
    ASSERT_TRUE(writer.Append({&a, 1}, &last).ok());
    ASSERT_TRUE(writer.SyncTo(last).ok());
  }
  (void)fs.ReopenLogs();
  RedoWriter resumed(fs.log("redo"));
  EXPECT_EQ(resumed.written_lsn(), 1u);
  RedoRecord b;
  b.type = RedoType::kCommit;
  Lsn last = 0;
  ASSERT_TRUE(resumed.Append({&b, 1}, &last).ok());
  EXPECT_EQ(b.lsn, 2u);
}

}  // namespace
}  // namespace imci
