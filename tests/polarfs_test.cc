#include <gtest/gtest.h>

#include <chrono>

#include "log/log_store.h"
#include "polarfs/polarfs.h"

namespace imci {
namespace {

TEST(PolarFsTest, PageStore) {
  PolarFs fs;
  Blob img;
  EXPECT_TRUE(fs.ReadPage(7, &img).IsNotFound());
  ASSERT_TRUE(fs.WritePage(7, "image7").ok());
  ASSERT_TRUE(fs.ReadPage(7, &img).ok());
  EXPECT_EQ(*img, "image7");
  EXPECT_TRUE(fs.ReadPage(8, &img).IsNotFound());
  EXPECT_EQ(fs.page_writes(), 1u);
  EXPECT_GE(fs.page_reads(), 3u);
}

TEST(PolarFsTest, FileStoreWithPrefixListing) {
  PolarFs fs;
  ASSERT_TRUE(fs.WriteFile("ckpt/1/a", "A").ok());
  ASSERT_TRUE(fs.WriteFile("ckpt/1/b", "B").ok());
  ASSERT_TRUE(fs.WriteFile("other", "O").ok());
  auto files = fs.ListFiles("ckpt/");
  EXPECT_EQ(files.size(), 2u);
  std::string data;
  ASSERT_TRUE(fs.ReadFile("ckpt/1/a", &data).ok());
  EXPECT_EQ(data, "A");
  ASSERT_TRUE(fs.DeleteFile("ckpt/1/a").ok());
  EXPECT_TRUE(fs.ReadFile("ckpt/1/a", &data).IsNotFound());
}

TEST(PolarFsTest, AppendFileCreatesAndExtends) {
  PolarFs fs;
  ASSERT_TRUE(fs.AppendFile("seg", "abc").ok());
  ASSERT_TRUE(fs.AppendFile("seg", "def").ok());
  std::string data;
  ASSERT_TRUE(fs.ReadFile("seg", &data).ok());
  EXPECT_EQ(data, "abcdef");
}

TEST(PolarFsTest, LinksShareBuffersAndWritesSwapThem) {
  PolarFs fs;
  const std::string image(1000, 'a');
  ASSERT_TRUE(fs.WritePage(1, image).ok());
  Blob old_page;
  ASSERT_TRUE(fs.ReadPage(1, &old_page).ok());
  ASSERT_TRUE(fs.WriteFile("link/1", old_page).ok());
  EXPECT_EQ(fs.stored_bytes(), 1000u);  // one buffer, two names

  // An identical rewrite keeps the buffer; a changed one swaps in a new
  // buffer and leaves the link's bytes alone.
  ASSERT_TRUE(fs.WritePage(1, image).ok());
  Blob now;
  ASSERT_TRUE(fs.ReadPage(1, &now).ok());
  EXPECT_EQ(now, old_page);
  ASSERT_TRUE(fs.WritePage(1, std::string(1000, 'b')).ok());
  ASSERT_TRUE(fs.ReadPage(1, &now).ok());
  EXPECT_NE(now, old_page);
  std::string linked;
  ASSERT_TRUE(fs.ReadFile("link/1", &linked).ok());
  EXPECT_EQ(linked, image);
  EXPECT_EQ(fs.stored_bytes(), 2000u);

  // An append to a shared file copies it once; the link keeps its bytes.
  ASSERT_TRUE(fs.AppendFile("seg", "abc").ok());
  Blob seg;
  ASSERT_TRUE(fs.ReadFile("seg", &seg).ok());
  ASSERT_TRUE(fs.WriteFile("link/seg", seg).ok());
  ASSERT_TRUE(fs.AppendFile("seg", "def").ok());
  ASSERT_TRUE(fs.ReadFile("link/seg", &linked).ok());
  EXPECT_EQ(linked, "abc");
  ASSERT_TRUE(fs.ReadFile("seg", &linked).ok());
  EXPECT_EQ(linked, "abcdef");

  // Deleting the last name frees the buffer.
  seg.reset();
  ASSERT_TRUE(fs.DeleteFile("link/seg").ok());
  old_page.reset();
  now.reset();
  ASSERT_TRUE(fs.DeleteFile("link/1").ok());
  EXPECT_EQ(fs.stored_bytes(), 1000u + 6u);
}

TEST(PolarFsTest, LogDirectoryReturnsSharedInstancePerName) {
  PolarFs fs;
  LogStore* redo = fs.log("redo");
  ASSERT_NE(redo, nullptr);
  // The same name is the same shared log — what carries the CALS broadcast
  // between nodes attached to this filesystem.
  EXPECT_EQ(redo, fs.log("redo"));
  EXPECT_NE(redo, fs.log("binlog"));
  redo->Append({"a"}, false);
  EXPECT_EQ(fs.log("redo")->written_lsn(), 1u);
  EXPECT_EQ(fs.log("binlog")->written_lsn(), 0u);
}

TEST(PolarFsTest, DurableAppendsAccountFsyncs) {
  PolarFs fs;
  fs.log("redo")->Append({"x"}, /*durable=*/false);
  EXPECT_EQ(fs.fsync_count(), 0u);
  fs.log("redo")->Append({"y"}, /*durable=*/true);
  EXPECT_EQ(fs.fsync_count(), 1u);
  LogStore* redo = fs.log("redo");
  ASSERT_TRUE(redo->SyncTo(redo->Append({"z"}, /*durable=*/false)).ok());
  EXPECT_EQ(fs.fsync_count(), 2u);
  EXPECT_GE(fs.log_bytes(), 2u);
}

TEST(PolarFsTest, SimulatedFsyncLatency) {
  PolarFs::Options opt;
  opt.fsync_latency_us = 2000;
  PolarFs fs(opt);
  auto t0 = std::chrono::steady_clock::now();
  fs.log("redo")->Append({"x"}, true);
  auto dt = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
  EXPECT_GE(dt, 1500);
}

TEST(PolarFsTest, ReopenLogsRecoversFromSegmentFiles) {
  PolarFs fs;
  LogStore* lg = fs.log("redo");
  lg->Append({"a", "b", "c"}, true);
  // Simulated restart: in-memory state is rebuilt from the segment files,
  // and the handle stays valid.
  (void)fs.ReopenLogs();
  EXPECT_EQ(lg->written_lsn(), 3u);
  std::vector<std::string> out;
  EXPECT_EQ(lg->Read(0, 10, &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], "c");
}

}  // namespace
}  // namespace imci
