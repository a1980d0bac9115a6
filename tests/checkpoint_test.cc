#include <gtest/gtest.h>

#include "imci/checkpoint.h"

namespace imci {
namespace {

std::shared_ptr<const Schema> TestSchema(TableId id = 1) {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  cols.push_back({"s", DataType::kString, true, true});
  cols.push_back({"d", DataType::kDouble, true, true});
  return std::make_shared<Schema>(id, "t" + std::to_string(id), cols, 0);
}

ColumnIndexOptions SmallGroups() {
  ColumnIndexOptions o;
  o.row_group_size = 32;
  return o;
}

TEST(CheckpointTest, IndexRoundTripPreservesContentAndVisibility) {
  ColumnIndex src(TestSchema(), SmallGroups());
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(src.Insert({i, i * 3, std::string("s") + std::to_string(i),
                            i * 0.5},
                           i % 5 + 1).ok());
  }
  ASSERT_TRUE(src.Delete(10, 7).ok());
  ASSERT_TRUE(src.Update({int64_t(20), int64_t(777), Value{}, 7.25}, 8).ok());

  std::string blob;
  ASSERT_TRUE(ImciCheckpoint::WriteIndex(src, /*csn=*/100, &blob).ok());
  ColumnIndex dst(TestSchema(), SmallGroups());
  ASSERT_TRUE(ImciCheckpoint::LoadIndex(blob, &dst).ok());

  EXPECT_EQ(dst.next_rid(), src.next_rid());
  for (Vid view : {Vid(1), Vid(5), Vid(7), Vid(8), Vid(100)}) {
    EXPECT_EQ(dst.visible_rows(view), src.visible_rows(view)) << view;
  }
  Row row;
  ASSERT_TRUE(dst.LookupByPk(20, 100, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 777);
  EXPECT_EQ(AsDouble(row[3]), 7.25);
  ASSERT_TRUE(dst.LookupByPk(33, 100, &row).ok());
  EXPECT_EQ(AsString(row[2]), "s33");
  EXPECT_EQ(AsDouble(row[3]), 16.5);
  EXPECT_TRUE(dst.LookupByPk(10, 100, &row).IsNotFound());
  // Pack metas were rebuilt (pruning stays sound).
  const PackMeta& m = dst.group(0)->meta(dst.PackForColumn(0));
  EXPECT_TRUE(m.has_value);
  EXPECT_EQ(m.min_i, 0);
}

TEST(CheckpointTest, PreCommitResidueStaysInvisibleAcrossCheckpoint) {
  // Checkpoints are taken quiesced at CSN == applied state (§7); the VID
  // clamp's job is to keep *pre-committed large-transaction residue*
  // (invalid VIDs, §5.5) invisible in the persisted image.
  ColumnIndex src(TestSchema(), SmallGroups());
  ASSERT_TRUE(src.Insert({int64_t(1), int64_t(1), Value{}, Value{}}, 5).ok());
  Rid rid = src.PreAllocate(3);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        src.PreWrite(rid + i, {int64_t(100 + i), int64_t(i), Value{}, Value{}})
            .ok());
  }
  std::string blob;
  ASSERT_TRUE(ImciCheckpoint::WriteIndex(src, /*csn=*/5, &blob).ok());
  ColumnIndex dst(TestSchema(), SmallGroups());
  ASSERT_TRUE(ImciCheckpoint::LoadIndex(blob, &dst).ok());
  EXPECT_EQ(dst.visible_rows(5), 1u);
  EXPECT_EQ(dst.visible_rows(1000), 1u);  // residue never becomes visible
  Row row;
  ASSERT_TRUE(dst.LookupByPk(1, 5, &row).ok());
  EXPECT_TRUE(dst.LookupByPk(100, 1000, &row).IsNotFound());
  // The recovered node re-replays the large transaction into new slots;
  // next_rid was preserved so fresh RIDs never collide with residue.
  EXPECT_EQ(dst.next_rid(), src.next_rid());
}

TEST(CheckpointTest, SnapshotManifestAndLoadLatest) {
  PolarFs fs;
  Catalog catalog;
  auto s1 = TestSchema(1);
  auto s2 = TestSchema(2);
  catalog.Register(s1);
  catalog.Register(s2);
  ImciStore store(nullptr, SmallGroups());
  ColumnIndex* i1 = store.CreateIndex(s1);
  ColumnIndex* i2 = store.CreateIndex(s2);
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(i1->Insert({i, i, Value{}, Value{}}, 1).ok());
    ASSERT_TRUE(i2->Insert({i, -i, Value{}, Value{}}, 2).ok());
  }
  ASSERT_TRUE(
      ImciCheckpoint::WriteSnapshot(store, /*csn=*/2, /*start_lsn=*/17, &fs,
                                    /*ckpt_id=*/1).ok());
  // A newer checkpoint becomes CURRENT.
  ASSERT_TRUE(
      i1->Insert({int64_t(100), int64_t(100), Value{}, Value{}}, 3).ok());
  ASSERT_TRUE(
      ImciCheckpoint::WriteSnapshot(store, /*csn=*/3, /*start_lsn=*/29, &fs,
                                    /*ckpt_id=*/2).ok());

  ImciStore loaded(nullptr, SmallGroups());
  Vid csn = 0;
  Lsn start_lsn = 0;
  uint64_t ckpt_id = 0;
  ASSERT_TRUE(ImciCheckpoint::LoadLatest(&fs, catalog, &loaded, &csn,
                                         &start_lsn, &ckpt_id).ok());
  EXPECT_EQ(csn, 3u);
  EXPECT_EQ(start_lsn, 29u);
  EXPECT_EQ(ckpt_id, 2u);
  EXPECT_EQ(loaded.GetIndex(1)->visible_rows(3), 41u);
  EXPECT_EQ(loaded.GetIndex(2)->visible_rows(3), 40u);
}

TEST(CheckpointTest, LoadLatestWithoutCheckpointIsNotFound) {
  PolarFs fs;
  Catalog catalog;
  ImciStore store(nullptr);
  Vid csn;
  Lsn lsn;
  EXPECT_TRUE(ImciCheckpoint::LoadLatest(&fs, catalog, &store, &csn, &lsn,
                                         nullptr).IsNotFound());
}

TEST(CheckpointTest, ReadLatestManifestProbesWithoutLoadingIndexData) {
  PolarFs fs;
  Vid csn = 0;
  Lsn start_lsn = 0;
  uint64_t id = 0;
  // No checkpoint yet: the recycling probe reports NotFound, not an error.
  EXPECT_TRUE(
      ImciCheckpoint::ReadLatestManifest(&fs, &csn, &start_lsn, &id)
          .IsNotFound());

  auto schema = TestSchema();
  ImciStore store(nullptr, SmallGroups());
  ColumnIndex* idx = store.CreateIndex(schema);
  ASSERT_TRUE(idx->Insert({int64_t(1), int64_t(1), Value{}, Value{}}, 1).ok());
  ASSERT_TRUE(
      ImciCheckpoint::WriteSnapshot(store, /*csn=*/7, /*start_lsn=*/42, &fs,
                                    /*ckpt_id=*/3).ok());
  const uint64_t reads_before = fs.page_reads();
  ASSERT_TRUE(
      ImciCheckpoint::ReadLatestManifest(&fs, &csn, &start_lsn, &id).ok());
  EXPECT_EQ(csn, 7u);
  EXPECT_EQ(start_lsn, 42u);
  EXPECT_EQ(id, 3u);
  EXPECT_EQ(fs.page_reads(), reads_before);  // header-only probe
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(CheckpointTest, FormatOfFixedIndexIsPinned) {
  // The checkpoint bytes of a fixed index, string edge cases included: NULL,
  // "", one byte, 16 bytes (past libstdc++'s small-string buffer) and
  // 70 KiB. A change to how packs hold strings must not change them.
  const std::vector<Value> strs = {Value{},
                                   std::string(),
                                   std::string("x"),
                                   std::string("0123456789abcdef"),
                                   std::string(70 * 1024, 'q'),
                                   std::string("s") + std::string(1, '\0')};
  ColumnIndex src(TestSchema(), SmallGroups());
  for (int64_t i = 0; i < 80; ++i) {
    Value s = strs[i % strs.size()];
    if (i % 7 == 3) s = "row" + std::to_string(i);
    const Value d = i % 11 == 0 ? Value{} : Value{i * 0.25 - 3};
    ASSERT_TRUE(src.Insert({i, i * i - 40, s, d}, i % 9 + 1).ok());
  }
  ASSERT_TRUE(src.Delete(12, 6).ok());
  ASSERT_TRUE(
      src.Update({int64_t(30), int64_t(-5), std::string(17, 'z'), 1.5}, 7)
          .ok());
  std::string blob;
  ASSERT_TRUE(ImciCheckpoint::WriteIndex(src, /*csn=*/8, &blob).ok());
  EXPECT_EQ(blob.size(), 218263u);
  EXPECT_EQ(Fnv1a64(blob), 0x37e498f2e5b17ae7ull);

  // And it loads back to the same strings.
  ColumnIndex dst(TestSchema(), SmallGroups());
  ASSERT_TRUE(ImciCheckpoint::LoadIndex(blob, &dst).ok());
  for (int64_t pk : {0, 1, 4, 5, 10, 30}) {
    Row want, got;
    ASSERT_TRUE(src.LookupByPk(pk, 8, &want).ok()) << pk;
    ASSERT_TRUE(dst.LookupByPk(pk, 8, &got).ok()) << pk;
    EXPECT_EQ(got, want) << pk;
  }
}

TEST(CheckpointTest, TornCurrentIsCorruption) {
  // A torn write can leave CURRENT empty or holding part of a number; a
  // booting node must see Corruption, not an exception.
  PolarFs fs;
  Catalog catalog;
  for (const char* current : {"", "12x"}) {
    SCOPED_TRACE(current);
    ASSERT_TRUE(fs.WriteFile("imci_ckpt/CURRENT", current).ok());
    ImciStore store(nullptr);
    Vid csn = 0;
    Lsn lsn = 0;
    uint64_t id = 0;
    Status s;
    EXPECT_NO_THROW(
        s = ImciCheckpoint::LoadLatest(&fs, catalog, &store, &csn, &lsn, &id));
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NO_THROW(s = ImciCheckpoint::ReadLatestManifest(&fs, &csn, &lsn,
                                                           &id));
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
}

}  // namespace
}  // namespace imci
