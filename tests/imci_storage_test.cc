#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "imci/column_index.h"
#include "imci/compression.h"

namespace imci {
namespace {

std::shared_ptr<const Schema> TestSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  cols.push_back({"d", DataType::kDouble, true, true});
  cols.push_back({"s", DataType::kString, true, true});
  return std::make_shared<Schema>(1, "t", cols, 0);
}

ColumnIndexOptions SmallGroups() {
  ColumnIndexOptions o;
  o.row_group_size = 64;
  return o;
}

TEST(ColumnIndexTest, InsertAndLookup) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  ASSERT_TRUE(idx.Insert({int64_t(1), int64_t(10), 1.5, std::string("a")},
                         5).ok());
  Row row;
  ASSERT_TRUE(idx.LookupByPk(1, 5, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 10);
  EXPECT_DOUBLE_EQ(AsDouble(row[2]), 1.5);
  // Not visible to an older snapshot.
  EXPECT_TRUE(idx.LookupByPk(1, 4, &row).IsNotFound());
}

TEST(ColumnIndexTest, OutOfPlaceUpdateKeepsOldVersionReadable) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  ASSERT_TRUE(idx.Insert({int64_t(1), int64_t(10), Value{}, Value{}}, 1).ok());
  ASSERT_TRUE(idx.Update({int64_t(1), int64_t(20), Value{}, Value{}}, 2).ok());
  // Two physical versions exist: RID 0 (old) and RID 1 (new).
  EXPECT_EQ(idx.next_rid(), 2u);
  auto g = idx.group(0);
  EXPECT_TRUE(g->Visible(0, 1));
  EXPECT_FALSE(g->Visible(0, 2));
  EXPECT_FALSE(g->Visible(1, 1));
  EXPECT_TRUE(g->Visible(1, 2));
  EXPECT_EQ(idx.visible_rows(1), 1u);
  EXPECT_EQ(idx.visible_rows(2), 1u);
}

TEST(ColumnIndexTest, DeleteRemovesLocatorMapping) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  ASSERT_TRUE(idx.Insert({int64_t(7), int64_t(1), Value{}, Value{}}, 1).ok());
  ASSERT_TRUE(idx.Delete(7, 2).ok());
  Row row;
  EXPECT_TRUE(idx.LookupByPk(7, 3, &row).IsNotFound());
  EXPECT_TRUE(idx.Delete(7, 3).IsNotFound());
  EXPECT_EQ(idx.visible_rows(1), 1u);  // old snapshot still sees it
  EXPECT_EQ(idx.visible_rows(2), 0u);
}

TEST(ColumnIndexTest, GroupsGrowAcrossBoundary) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(idx.Insert({i, i, Value{}, Value{}}, 1).ok());
  }
  EXPECT_EQ(idx.num_groups(), 4u);  // 64*3 = 192 < 200
  EXPECT_EQ(idx.GroupUsed(0), 64u);
  EXPECT_EQ(idx.GroupUsed(3), 8u);
  EXPECT_EQ(idx.visible_rows(1), 200u);
}

TEST(ColumnIndexTest, PackMetaTracksMinMax) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(idx.Insert({i, 1000 + i, Value{}, Value{}}, 1).ok());
  }
  auto g = idx.group(0);
  const PackMeta& m = g->meta(idx.PackForColumn(1));
  EXPECT_EQ(m.min_i, 1000);
  EXPECT_EQ(m.max_i, 1063);
  EXPECT_FALSE(m.sample.empty());
}

TEST(ColumnIndexTest, PackCodecsCompressFullGroup) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        idx.Insert({i, i % 4, 0.5, std::string("tag") +
                    std::to_string(i % 3)}, 1).ok());
  }
  ASSERT_EQ(idx.GroupUsed(0), 64u);
  auto g = idx.group(0);
  size_t bytes = 0;
  for (int p = 0; p < g->num_packs(); ++p) {
    const ColumnPack& pack = *g->mutable_pack(p);
    std::string lane;
    switch (pack.type) {
      case DataType::kInt64:
      case DataType::kInt32:
      case DataType::kDate:
        IntCodec::Encode(pack.ints, &lane);
        break;
      case DataType::kDouble:
        DoubleCodec::Encode(pack.dbls, &lane);
        break;
      case DataType::kString: {
        std::vector<std::string_view> views;
        for (StrRef ref : pack.refs) views.push_back(pack.pool.View(ref));
        DictCodec::Encode(views, &lane);
        break;
      }
    }
    bytes += lane.size();
  }
  // The encoded lanes are far smaller than raw 64 * (8+8+8+string).
  EXPECT_GT(bytes, 0u);
  EXPECT_LT(bytes, 64u * 30);
}

TEST(ColumnIndexTest, InsertVidMapDropping) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(idx.Insert({i, i, Value{}, Value{}}, 2).ok());
  }
  // Oldest active view at VID 1: map must be kept.
  EXPECT_EQ(idx.DropInsertVidMaps(1), 0u);
  // Oldest active view at VID 2, the newest insert's: every view sees every
  // insert, so the map goes.
  EXPECT_EQ(idx.DropInsertVidMaps(2), 1u);
  EXPECT_TRUE(idx.group(0)->insert_vids_dropped());
  EXPECT_EQ(idx.visible_rows(2), 64u);
  // Oldest active view newer than every insert: map dropped, rows stay
  // visible.
  EXPECT_EQ(idx.DropInsertVidMaps(10), 1u);
  EXPECT_TRUE(idx.group(0)->insert_vids_dropped());
  EXPECT_EQ(idx.visible_rows(10), 64u);

  // A partial group keeps its map, however old its inserts.
  for (int64_t i = 64; i < 70; ++i) {
    ASSERT_TRUE(idx.Insert({i, i, Value{}, Value{}}, 3).ok());
  }
  EXPECT_EQ(idx.DropInsertVidMaps(10), 1u);
  EXPECT_FALSE(idx.group(1)->insert_vids_dropped());

  // A full group keeps its map while a pre-allocated slot is unrectified.
  const Rid base = idx.PreAllocate(58);
  ASSERT_EQ(idx.GroupUsed(1), 64u);
  for (int64_t i = 0; i < 58; ++i) {
    ASSERT_TRUE(
        idx.PreWrite(base + i, {70 + i, i, Value{}, Value{}}).ok());
  }
  for (int64_t i = 0; i < 57; ++i) {
    ASSERT_TRUE(idx.RectifyInsert(base + i, 70 + i, 4).ok());
  }
  EXPECT_EQ(idx.DropInsertVidMaps(10), 1u);
  EXPECT_FALSE(idx.group(1)->insert_vids_dropped());
  ASSERT_TRUE(idx.RectifyInsert(base + 57, 127, 4).ok());
  EXPECT_EQ(idx.DropInsertVidMaps(10), 2u);
  EXPECT_TRUE(idx.group(1)->insert_vids_dropped());
  EXPECT_EQ(idx.visible_rows(10), 128u);
}

TEST(ColumnIndexTest, PreCommitInvisibleUntilRectified) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  Rid base = idx.PreAllocate(10);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(idx.PreWrite(base + i,
                             {int64_t(i), int64_t(i), Value{}, Value{}}).ok());
  }
  EXPECT_EQ(idx.visible_rows(kMaxVid - 1), 0u);
  Row row;
  EXPECT_TRUE(idx.LookupByPk(3, 100, &row).IsNotFound());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(idx.RectifyInsert(base + i, i, 50).ok());
  }
  EXPECT_EQ(idx.visible_rows(50), 10u);
  ASSERT_TRUE(idx.LookupByPk(3, 50, &row).ok());
}

TEST(RidLocatorTest, PutGetEraseAcrossFlushes) {
  RidLocator locator(/*memtable_limit=*/64);
  for (int64_t pk = 0; pk < 1000; ++pk) locator.Put(pk, pk * 2);
  Rid rid;
  for (int64_t pk = 0; pk < 1000; pk += 37) {
    ASSERT_TRUE(locator.Get(pk, &rid).ok());
    EXPECT_EQ(rid, static_cast<Rid>(pk * 2));
  }
  locator.Erase(500);
  EXPECT_TRUE(locator.Get(500, &rid).IsNotFound());
  // Overwrite maps to the newest RID.
  locator.Put(7, 999);
  ASSERT_TRUE(locator.Get(7, &rid).ok());
  EXPECT_EQ(rid, 999u);
}

TEST(RidLocatorTest, TombstonesSurviveRunFlushes) {
  RidLocator locator(16);
  for (int64_t pk = 0; pk < 400; ++pk) locator.Put(pk, pk);
  for (int64_t pk = 0; pk < 400; pk += 2) locator.Erase(pk);
  // More churn to force flushes and merges.
  for (int64_t pk = 1000; pk < 1400; ++pk) locator.Put(pk, pk);
  Rid rid;
  for (int64_t pk = 0; pk < 400; ++pk) {
    if (pk % 2 == 0) {
      EXPECT_TRUE(locator.Get(pk, &rid).IsNotFound()) << pk;
    } else {
      ASSERT_TRUE(locator.Get(pk, &rid).ok()) << pk;
    }
  }
}

TEST(RidLocatorTest, SnapshotIsImmutableUnderConcurrentWrites) {
  RidLocator locator(32);
  for (int64_t pk = 0; pk < 100; ++pk) locator.Put(pk, pk);
  auto snapshot = locator.Snapshot();
  size_t snap_entries = 0;
  for (auto& runs : snapshot) {
    for (auto& run : runs) snap_entries += run->entries.size();
  }
  EXPECT_EQ(snap_entries, 100u);
  // Mutations after the snapshot do not stain it (functional split, §7).
  for (int64_t pk = 100; pk < 200; ++pk) locator.Put(pk, pk);
  locator.Erase(5);
  size_t snap_entries2 = 0;
  for (auto& runs : snapshot) {
    for (auto& run : runs) snap_entries2 += run->entries.size();
  }
  EXPECT_EQ(snap_entries2, 100u);
  // Restore into a fresh locator reproduces the snapshot state.
  RidLocator restored(32);
  restored.Restore(snapshot);
  Rid rid;
  ASSERT_TRUE(restored.Get(5, &rid).ok());
  EXPECT_TRUE(restored.Get(150, &rid).IsNotFound());
}

// --- Compression property sweeps ------------------------------------------

struct IntPattern {
  const char* name;
  std::function<int64_t(int64_t, Rng&)> gen;
};

class IntCodecParam : public ::testing::TestWithParam<int> {};

TEST_P(IntCodecParam, RoundTripPatterns) {
  Rng rng(GetParam());
  std::vector<std::vector<int64_t>> patterns;
  // Sequential (delta-friendly), constant, small-range, random, negatives.
  std::vector<int64_t> v;
  for (int64_t i = 0; i < 5000; ++i) v.push_back(1'000'000 + i);
  patterns.push_back(v);
  patterns.push_back(std::vector<int64_t>(1000, 42));
  v.clear();
  for (int i = 0; i < 3000; ++i) v.push_back(100 + rng.Next() % 16);
  patterns.push_back(v);
  v.clear();
  for (int i = 0; i < 2000; ++i) v.push_back(static_cast<int64_t>(rng.Next()));
  patterns.push_back(v);
  v.clear();
  for (int i = 0; i < 1000; ++i) v.push_back(-500 + (int64_t)(rng.Next() % 1000));
  patterns.push_back(v);
  patterns.push_back({});                          // empty
  patterns.push_back({int64_t(1) << 62, -(int64_t(1) << 62), 0});  // extremes
  for (auto& p : patterns) {
    std::string buf;
    IntCodec::Encode(p, &buf);
    std::vector<int64_t> out;
    ASSERT_TRUE(IntCodec::Decode(buf, &out).ok());
    EXPECT_EQ(out, p);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntCodecParam, ::testing::Values(1, 2, 3));

TEST(IntCodecTest, SequentialDataCompressesWell) {
  std::vector<int64_t> v;
  for (int64_t i = 0; i < 10000; ++i) v.push_back(i);
  std::string buf;
  IntCodec::Encode(v, &buf);
  // 10k sequential int64s (80KB raw) should bitpack to ~nothing.
  EXPECT_LT(buf.size(), 4000u);
}

TEST(DictCodecTest, RoundTripAndCompression) {
  std::vector<std::string_view> v;
  const char* tags[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 5000; ++i) v.push_back(tags[i % 3]);
  std::string buf;
  DictCodec::Encode(v, &buf);
  EXPECT_LT(buf.size(), 3000u);  // 2 bits/code + tiny dictionary
  StringPool pool;
  std::vector<StrRef> refs(v.size());
  ASSERT_TRUE(DictCodec::Decode(buf, 5000, &pool, refs.data()).ok());
  for (size_t i = 0; i < v.size(); ++i) EXPECT_EQ(pool.View(refs[i]), v[i]);
  // A lane of another length is refused.
  EXPECT_TRUE(DictCodec::Decode(buf, 4999, &pool, refs.data()).IsCorruption());
  // Empty edge case.
  buf.clear();
  DictCodec::Encode({}, &buf);
  EXPECT_TRUE(DictCodec::Decode(buf, 0, &pool, refs.data()).ok());
}

TEST(DoubleCodecTest, RoundTrip) {
  std::vector<double> v = {0.0, -1.5, 3.14159, 1e300, -1e-300};
  std::string buf;
  DoubleCodec::Encode(v, &buf);
  std::vector<double> out;
  ASSERT_TRUE(DoubleCodec::Decode(buf, &out).ok());
  EXPECT_EQ(out, v);
}

TEST(StringPoolTest, ValuesOfEverySizeReadBackWhole) {
  StringPool pool;
  std::vector<std::pair<StrRef, std::string>> kept;
  for (size_t len : {0, 1, 255, 2, 300, 16, 70 * 1024, 3, 600}) {
    std::string s(len, static_cast<char>('a' + kept.size()));
    StrRef ref;
    ASSERT_TRUE(pool.Append(s, &ref));
    kept.emplace_back(ref, std::move(s));
  }
  for (const auto& [ref, s] : kept) EXPECT_EQ(pool.View(ref), s);
}

// Phase#2 appliers write distinct slots of one partial group at once, each
// slot once, and publish each through its insert VID; a scan running beside
// them must see every published string whole. The values span the pool's
// chunk sizes, so writers open chunks while the scan reads older ones. CI
// runs this under tsan.
TEST(RowGroupTest, ConcurrentStringWritersPublishWholeValues) {
  auto schema = TestSchema();
  constexpr uint32_t kSlots = 4096;
  constexpr uint32_t kUsed = kSlots - 9;  // the group stays partial
  constexpr int kWriters = 4;
  RowGroup g(*schema, {0, 3}, kSlots, 0);
  auto value_of = [](uint32_t slot) -> Value {
    if (slot % 13 == 0) return Value{};
    const size_t len = slot % 97 == 0 ? 5000 + slot : (slot * 7919) % 300;
    std::string s = std::to_string(slot) + ":";
    s.resize(std::max(s.size(), len), static_cast<char>('a' + slot % 26));
    return s;
  };
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint32_t slot = w; slot < kUsed; slot += kWriters) {
        EXPECT_TRUE(
            g.WriteRow(slot, {int64_t(slot), Value{}, Value{}, value_of(slot)})
                .ok());
        g.SetInsertVid(slot, slot + 1);
      }
    });
  }
  uint64_t checked = 0;
  for (bool all = false; !all;) {
    all = true;
    for (uint32_t slot = 0; slot < kUsed; ++slot) {
      if (!g.Visible(slot, kMaxVid - 1)) {
        all = false;
        continue;
      }
      const Value want = value_of(slot);
      EXPECT_EQ(g.null_data(1)[slot] != 0, IsNull(want)) << slot;
      if (!IsNull(want)) {
        EXPECT_EQ(g.str_at(1, slot), AsString(want)) << slot;
      }
      ++checked;
    }
  }
  for (std::thread& t : writers) t.join();
  EXPECT_GE(checked, kUsed);
  EXPECT_FALSE(g.Visible(kUsed, kMaxVid - 1));
}

}  // namespace
}  // namespace imci
