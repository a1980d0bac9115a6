#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <thread>

#include "archive/snapshot_store.h"
#include "cluster/fragment_service.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/row.h"
#include "common/snapshot_registry.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "imci/checkpoint.h"
#include "imci/compression.h"
#include "polarfs/polarfs.h"
#include "redo/redo_record.h"
#include "replication/pipeline.h"
#include "rowstore/binlog.h"
#include "rowstore/page.h"

namespace imci {
namespace {

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
  EXPECT_EQ(Status::OK().ToString(), "OK");
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::Aborted().IsAborted());
}

TEST(DateTest, RoundTripAndYear) {
  EXPECT_EQ(MakeDate(1970, 1, 1), 0);
  EXPECT_EQ(DateToString(MakeDate(1998, 9, 2)), "1998-09-02");
  EXPECT_EQ(DateYear(MakeDate(1992, 12, 31)), 1992);
  EXPECT_EQ(DateYear(MakeDate(1993, 1, 1)), 1993);
  // Leap-year handling.
  EXPECT_EQ(MakeDate(1996, 3, 1) - MakeDate(1996, 2, 28), 2);
  EXPECT_EQ(MakeDate(1995, 3, 1) - MakeDate(1995, 2, 28), 1);
}

TEST(ValueTest, CompareOrdersNullsFirst) {
  EXPECT_LT(CompareValues(Value{}, Value{int64_t(1)}), 0);
  EXPECT_EQ(CompareValues(Value{}, Value{}), 0);
  EXPECT_GT(CompareValues(Value{int64_t(2)}, Value{int64_t(1)}), 0);
  EXPECT_LT(CompareValues(Value{std::string("a")}, Value{std::string("b")}),
            0);
  EXPECT_EQ(CompareValues(Value{1.5}, Value{1.5}), 0);
  // Mixed numeric: int widens to double.
  EXPECT_LT(CompareValues(Value{int64_t(1)}, Value{1.5}), 0);
}

class RowCodecTest : public ::testing::Test {
 protected:
  RowCodecTest()
      : schema_(1, "t",
                {{"id", DataType::kInt64, false, true},
                 {"d", DataType::kDouble, true, true},
                 {"s", DataType::kString, true, true},
                 {"dt", DataType::kDate, true, true}},
                0) {}
  Schema schema_;
};

TEST_F(RowCodecTest, RoundTrip) {
  Row row = {int64_t(42), 3.14, std::string("hello"), int64_t(10000)};
  std::string buf;
  RowCodec::Encode(schema_, row, &buf);
  Row decoded;
  ASSERT_TRUE(RowCodec::Decode(schema_, buf.data(), buf.size(), &decoded).ok());
  EXPECT_EQ(decoded, row);
}

TEST_F(RowCodecTest, NullsRoundTrip) {
  Row row = {int64_t(1), Value{}, Value{}, Value{}};
  std::string buf;
  RowCodec::Encode(schema_, row, &buf);
  Row decoded;
  ASSERT_TRUE(RowCodec::Decode(schema_, buf.data(), buf.size(), &decoded).ok());
  EXPECT_EQ(decoded, row);
}

TEST_F(RowCodecTest, DecodePkSkipsOtherColumns) {
  Row row = {int64_t(77), 1.0, std::string("abc"), Value{}};
  std::string buf;
  RowCodec::Encode(schema_, row, &buf);
  int64_t pk = 0;
  ASSERT_TRUE(RowCodec::DecodePk(schema_, buf.data(), buf.size(), &pk).ok());
  EXPECT_EQ(pk, 77);
}

TEST_F(RowCodecTest, TruncatedBufferIsCorruption) {
  Row row = {int64_t(1), 2.0, std::string("xyz"), Value{}};
  std::string buf;
  RowCodec::Encode(schema_, row, &buf);
  Row decoded;
  for (size_t cut : {size_t(0), buf.size() / 2, buf.size() - 1}) {
    Status s = RowCodec::Decode(schema_, buf.data(), cut, &decoded);
    EXPECT_FALSE(s.ok()) << "cut=" << cut;
  }
}

class RowDiffParam : public ::testing::TestWithParam<int> {};

TEST_P(RowDiffParam, ComputeApplyRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    std::string before = rng.RandomString(0, 60);
    std::string after = before;
    const int kind = rng.Next() % 4;
    if (kind == 0 && !after.empty()) {
      after[rng.Next() % after.size()] = 'Z';
    } else if (kind == 1) {
      after += rng.RandomString(1, 20);
    } else if (kind == 2 && after.size() > 2) {
      after.resize(after.size() / 2);
    } else {
      after = rng.RandomString(0, 60);
    }
    RowDiff diff = RowDiff::Compute(before, after);
    std::string applied;
    ASSERT_TRUE(diff.Apply(before, &applied).ok());
    EXPECT_EQ(applied, after);
    std::string buf;
    diff.Serialize(&buf);
    RowDiff diff2;
    ASSERT_TRUE(RowDiff::Deserialize(buf.data(), buf.size(), &diff2).ok());
    ASSERT_TRUE(diff2.Apply(before, &applied).ok());
    EXPECT_EQ(applied, after);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowDiffParam, ::testing::Values(1, 2, 3, 4));

TEST(RowDiffTest, DiffIsSmallerThanFullImageForPointEdits) {
  std::string before(200, 'a');
  std::string after = before;
  after[100] = 'b';
  RowDiff diff = RowDiff::Compute(before, after);
  EXPECT_LT(diff.ByteSize(), before.size() / 4);
}

TEST(HistogramTest, PercentilesAreOrdered) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Record(v);
  EXPECT_EQ(h.Count(), 10000u);
  uint64_t p50 = h.Percentile(0.5);
  uint64_t p99 = h.Percentile(0.99);
  uint64_t p999 = h.Percentile(0.999);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_NEAR(static_cast<double>(p50), 5000, 700);
  EXPECT_EQ(h.Max(), 10000u);
  EXPECT_EQ(h.Min(), 1u);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
}

TEST(RngTest, DeterministicAndUniformish) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng r(9);
  int64_t low_half = 0;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.Uniform(10, 20);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 20);
    if (v <= 15) low_half++;
  }
  EXPECT_GT(low_half, 350);
  EXPECT_LT(low_half, 750);
}

TEST(ZipfTest, SkewsTowardSmallKeys) {
  Zipf z(100000, 0.99, 3);
  uint64_t small = 0;
  for (int i = 0; i < 10000; ++i) {
    if (z.Next() < 1000) small++;
  }
  // With theta=0.99 far more than 1% of draws land in the first 1%.
  EXPECT_GT(small, 2000u);
}

TEST(ThreadPoolTest, ParallelForRunsAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(&pool, 64, [&](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SnapshotRegistryTest, WatermarkTracksPins) {
  SnapshotRegistry reg;
  const std::atomic<Vid> published{100};
  uint64_t t1 = reg.Pin(50);
  uint64_t t2 = reg.Pin(70);
  EXPECT_EQ(reg.Watermark(published), 50u);
  reg.Unpin(t1);
  EXPECT_EQ(reg.Watermark(published), 70u);
  reg.Unpin(t2);
  // Each answer is a release horizon: maintenance may have freed what a
  // view below it reads, so a view pinned there later is not covered.
  EXPECT_TRUE(reg.Covers(70));
  EXPECT_FALSE(reg.Covers(69));
  EXPECT_EQ(reg.Watermark(published), 100u);
  uint64_t t3 = reg.Pin(80);
  EXPECT_FALSE(reg.Covers(80));
  EXPECT_EQ(reg.Watermark(published), 80u);  // a pin still holds it back
  reg.Unpin(t3);
  EXPECT_TRUE(reg.Covers(100));
}

TEST(SnapshotRegistryTest, ViewMoveTransfersTheRegistration) {
  SnapshotRegistry reg;
  const std::atomic<Vid> published{100};
  SnapshotRegistry::View a = reg.PinView(40);
  {
    SnapshotRegistry::View b = std::move(a);
    a.Close();  // moved from: releases nothing
    EXPECT_EQ(b.vid(), 40u);
    EXPECT_EQ(reg.Watermark(published), 40u);
  }
  EXPECT_EQ(reg.Watermark(published), 100u);  // b's destructor released it
}

TEST(SnapshotRegistryTest, SecondCloseReleasesNothing) {
  SnapshotRegistry reg;
  std::atomic<Vid> published{50};
  SnapshotRegistry::View first = reg.OpenView(published);
  SnapshotRegistry::View second = reg.OpenView(published);
  published.store(90);
  first.Close();
  first.Close();
  EXPECT_EQ(reg.Watermark(published), 50u);  // `second` still holds 50
  second.Close();
  EXPECT_EQ(reg.Watermark(published), 90u);
}

TEST(SnapshotRegistryTest, PinnedViewBelowTheHorizonStillHoldsTheWatermark) {
  SnapshotRegistry reg;
  const std::atomic<Vid> published{100};
  EXPECT_EQ(reg.Watermark(published), 100u);  // hands out horizon 100
  {
    const SnapshotRegistry::View stale = reg.PinView(80);
    EXPECT_FALSE(reg.Covers(stale.vid()));
    EXPECT_EQ(reg.Watermark(published), 80u);
  }
  EXPECT_EQ(reg.Watermark(published), 100u);
}

TEST(SnapshotRegistryTest, OpenedViewSamplesThePublishedPoint) {
  SnapshotRegistry reg;
  std::atomic<Vid> published{7};
  SnapshotRegistry::View v = reg.OpenView(published);
  EXPECT_EQ(v.vid(), 7u);
  EXPECT_TRUE(reg.Covers(v.vid()));
  published.store(9);
  EXPECT_EQ(reg.Watermark(published), 7u);
  v.Close();
  EXPECT_EQ(reg.hint(), 9u);  // closing refreshes the hint
  EXPECT_EQ(reg.Watermark(published), 9u);
}

TEST(CodingTest, FixedIntsRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefull);
  EXPECT_EQ(GetFixed32(buf.data()), 0xdeadbeefu);
  EXPECT_EQ(GetFixed64(buf.data() + 4), 0x0123456789abcdefull);
}

TEST(CodingTest, Hash64Spreads) {
  std::set<uint64_t> buckets;
  for (uint64_t i = 0; i < 1000; ++i) buckets.insert(Hash64(i) % 64);
  EXPECT_EQ(buckets.size(), 64u);
}

TEST(CodingTest, ByteReaderRejectsWhatTheBufferCannotHold) {
  std::string buf;
  PutFixed32(&buf, 2);  // two 8-byte elements claimed, one present
  PutFixed64(&buf, 7);
  ByteReader r(buf);
  uint32_t n = 0;
  EXPECT_TRUE(r.Count(8, &n).IsCorruption());
  ByteReader ok(buf);
  ASSERT_TRUE(ok.Count(4, &n).ok());
  EXPECT_EQ(n, 2u);

  std::string str;
  PutLengthPrefixed(&str, "abc");
  std::string_view view;
  ASSERT_TRUE(ByteReader(str).Str(&view).ok());
  EXPECT_EQ(view, "abc");
  EXPECT_TRUE(ByteReader(str.data(), str.size() - 1).Str(&view).IsCorruption());

  std::string_view body;
  PutHashTrailer(&str);
  ASSERT_TRUE(CheckHashTrailer(str, &body).ok());
  EXPECT_EQ(body.size(), 7u);
  str[0] ^= 1;
  EXPECT_TRUE(CheckHashTrailer(str, &body).IsCorruption());
  EXPECT_TRUE(CheckHashTrailer("short", &body).IsCorruption());
}

// Builds crafted decoder inputs field by field.
struct Crafted {
  std::string s;
  Crafted& u8(uint8_t v) {
    s.push_back(static_cast<char>(v));
    return *this;
  }
  Crafted& u32(uint32_t v) {
    PutFixed32(&s, v);
    return *this;
  }
  Crafted& u64(uint64_t v) {
    PutFixed64(&s, v);
    return *this;
  }
  Crafted& zeros(size_t n) {
    s.append(n, '\0');
    return *this;
  }
  Crafted& str(std::string_view v) {
    PutLengthPrefixed(&s, v);
    return *this;
  }
  Crafted& hash_trailer() {
    PutFixed64(&s, HashBytes(s.data(), s.size()));
    return *this;
  }
};

// Every decoder of stored or shipped bytes, fed a small crafted input that
// claims a huge count or carries an out-of-range enum byte. Each must return
// Corruption, and must not size an allocation from the claim first: CI runs
// this test under `ulimit -v`, where such an allocation throws bad_alloc.
TEST(HostileInputTest, SmallInputsWithHugeCountsOrBadEnumsAreCorruption) {
  PolarFs fs;
  Catalog catalog;
  RowStoreEngine replica(&fs, &catalog);
  ImciStore imci(replica.row_snapshots());
  ThreadPool threads(1);
  ReplicationPipeline pipeline(&fs, &catalog, replica.buffer_pool(), &imci,
                               &threads, ReplicationOptions(), "hostile",
                               &replica);
  auto schema = std::make_shared<Schema>(
      1, "t", std::vector<ColumnDef>{{"id", DataType::kInt64, false, true}},
      0);

  using Decoder = std::function<Status(const std::string&)>;
  const Decoder row_diff = [](const std::string& in) {
    RowDiff diff;
    return RowDiff::Deserialize(in.data(), in.size(), &diff);
  };
  const Decoder ints = [](const std::string& in) {
    std::vector<int64_t> out;
    return IntCodec::Decode(in, &out);
  };
  const Decoder dict = [](const std::string& in) {
    StringPool pool;
    StrRef ref;
    return DictCodec::Decode(in, 1, &pool, &ref);
  };
  const Decoder inflight = [&](const std::string& in) {
    return pipeline.RestoreInflight(in);
  };
  const Decoder ckpt_index = [&](const std::string& in) {
    ColumnIndex index(schema);
    return ImciCheckpoint::LoadIndex(in, &index);
  };
  const Decoder redo = [](const std::string& in) {
    RedoRecord rec;
    return RedoRecord::Deserialize(in.data(), in.size(), &rec);
  };
  const Decoder page = [](const std::string& in) {
    Page p;
    return Page::Deserialize(in.data(), in.size(), &p);
  };
  const Decoder listing = [](const std::string& in) {
    SnapshotStore::Listing out;
    return SnapshotStore::Listing::Decode(in, &out);
  };
  const Decoder binlog = [](const std::string& in) {
    Tid tid;
    Vid vid;
    uint64_t ts;
    std::vector<BinlogWriter::Event> events;
    return BinlogWriter::DecodeTxn(in, &tid, &vid, &ts, &events)
               ? Status::OK()
               : Status::Corruption("binlog txn");
  };

  constexpr uint32_t kHuge = 0xFFFFFFFF;
  // One in-flight transaction: tid, first_lsn, pre_committed.
  const Crafted txn = Crafted().u32(1).u64(7).u64(1).u8(0);
  // A column checkpoint of table 1 with no row groups.
  const Crafted index = Crafted().u32(1).u64(0).u64(0).u32(
      ColumnIndexOptions().row_group_size).u64(0);
  struct Case {
    const char* name;
    std::string input;
    const Decoder& decode;
  };
  const Case cases[] = {
      {"row diff patch count", Crafted().u32(0).u32(kHuge).s, row_diff},
      {"dict size", Crafted().u32(1).u32(kHuge).s, dict},
      {"int lane count at width 0",
       Crafted().u32(kHuge).u8(0).u64(0).u8(0).s, ints},
      {"int lane width 100", Crafted().u32(1).u8(0).u64(0).u8(100).zeros(13).s,
       ints},
      {"in-flight DML count", Crafted(txn).u32(kHuge).s, inflight},
      {"in-flight pre-op count", Crafted(txn).u32(0).u32(kHuge).s, inflight},
      {"checkpoint shard count", Crafted(index).u32(kHuge).s, ckpt_index},
      {"checkpoint run entries", Crafted(index).u32(1).u32(1).u32(kHuge).s,
       ckpt_index},
      {"anchor listing page count",
       Crafted().zeros(24).u32(kHuge).hash_trailer().s, listing},
      {"anchor listing file count",
       Crafted().zeros(24).u32(0).u32(kHuge).hash_trailer().s, listing},
      {"anchor listing file name length",
       Crafted().zeros(24).u32(0).u32(1).u32(kHuge).zeros(16).hash_trailer().s,
       listing},
      // Out-of-range enum bytes; the rest of each input is well formed.
      {"redo record type", Crafted().u8(0x7f).zeros(40).s, redo},
      {"page type", Crafted().u8(0x7f).zeros(48).s, page},
      {"binlog event op",
       Crafted().zeros(24).u32(1).u8(0x7f).zeros(16).hash_trailer().s, binlog},
      {"in-flight DML op",
       Crafted(txn).u32(1).u8(0x7f).zeros(20).u32(0).u32(0).u32(0).s,
       inflight},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_LE(c.input.size(), 64u);
    Status s;
    EXPECT_NO_THROW(s = c.decode(c.input));
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
}

// The fragment protocol's decoders, fed the same kind of input: a plan or
// expression claiming a huge count, a response claiming huge rows, and
// out-of-range status and value tags. A plan node is 68 bytes before its
// child count, hence the larger size bound.
TEST(HostileInputTest, FragmentMessagesWithHugeCountsOrBadTagsAreCorruption) {
  using Decoder = std::function<Status(const std::string&)>;
  const Decoder request = [](const std::string& in) {
    FragmentRequest req;
    return DecodeFragmentRequest(in, &req);
  };
  const Decoder response = [](const std::string& in) {
    FragmentResponse rsp;
    return DecodeFragmentResponse(in, {DataType::kInt64}, &rsp);
  };

  constexpr uint32_t kHuge = 0xFFFFFFFF;
  // Request header: version, read VID, catch-up bound, dop.
  const Crafted header = Crafted().u32(1).u64(1).u64(1).u32(0);
  // A scan node up to its child count: kind, table, no columns, no filter,
  // partition column, flags and bounds, no exprs, keys, join type, groups,
  // aggregates or sort keys, then the limit.
  const Crafted node = Crafted(header)
                           .u8(0).u32(1).u32(0).u8(0)
                           .u32(0).u8(0).u64(0).u64(0)
                           .u32(0).u32(0).u32(0).u8(0).u32(0).u32(0).u32(0)
                           .u64(0);
  // A filter holding a column expression up to its argument count: kind,
  // type, column, NULL constant, pattern, IN set, substring bounds.
  const Crafted expr = Crafted(header)
                           .u8(1).u32(1).u32(0).u8(1)
                           .u8(0).u8(0).u32(0).u8(0).str("").u32(0).u32(0)
                           .u32(0);
  // Response header: OK status, wait and exec times.
  const Crafted ok = Crafted().u8(0).str("").u64(0).u64(0);
  struct Case {
    const char* name;
    std::string input;
    const Decoder& decode;
  };
  const Case cases[] = {
      {"plan child count", Crafted(node).u32(kHuge).s, request},
      {"plan column count", Crafted(header).u8(0).u32(1).u32(kHuge).s,
       request},
      {"expression argument count", Crafted(expr).u32(kHuge).s, request},
      {"response row count", Crafted(ok).u32(kHuge).s, response},
      {"response row width", Crafted(ok).u32(1).u32(kHuge).u8(1).u64(7).s,
       response},
      {"response status code",
       Crafted().u8(0x7f).str("").u64(0).u64(0).u32(0).s, response},
      {"response value tag", Crafted(ok).u32(1).u32(1).u8(0x7f).u64(7).s,
       response},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_LE(c.input.size(), 128u);
    Status s;
    EXPECT_NO_THROW(s = c.decode(c.input));
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
  // The well-formed prefixes decode: each case fails at its own field.
  EXPECT_TRUE(request(Crafted(node).u32(0).s).ok());
  FragmentResponse rsp;
  ASSERT_TRUE(DecodeFragmentResponse(Crafted(ok).u32(1).u32(1).u8(1).u64(7).s,
                                     {DataType::kInt64}, &rsp)
                  .ok());
  EXPECT_EQ(ToRows(rsp.rows), std::vector<Row>{Row{int64_t{7}}});
}

// Decoding a checkpoint string lane into a pack's flat lane: a lane that
// names a code past its dictionary, decodes to more bytes than the pack's
// 32-bit offsets address, or holds more codes than the group has slots is
// Corruption, and nothing is copied into the pool first.
TEST(HostileInputTest, StringLanesIntoThePoolAreCorruption) {
  constexpr uint32_t kSlots = 65536;  // the default row group size
  ASSERT_EQ(ColumnIndexOptions().row_group_size, kSlots);
  std::vector<StrRef> refs(kSlots);
  auto decode = [&](const std::string& lane, uint32_t count,
                    StringPool* pool) {
    Status s;
    EXPECT_NO_THROW(s = DictCodec::Decode(lane, count, pool, refs.data()));
    return s;
  };
  {  // Well formed: codes 0, 1, 1 over {"a", "bc"} at 2 bits.
    StringPool pool;
    ASSERT_TRUE(decode(Crafted().u32(3).u32(2).str("a").str("bc").u8(2).u8(
                           0x14).s,
                       3, &pool)
                    .ok());
    EXPECT_EQ(pool.View(refs[0]), "a");
    EXPECT_EQ(pool.View(refs[1]), "bc");
    EXPECT_EQ(pool.View(refs[2]), "bc");
  }
  struct Case {
    const char* name;
    std::string lane;
    uint32_t count;
  };
  const std::string wide(kSlots + 1, 'x');
  const Case cases[] = {
      // Codes 0 and 2 over two entries: 2 is the dictionary's size.
      {"code at dictionary size",
       Crafted().u32(2).u32(2).str("a").str("bc").u8(2).u8(0x08).s, 2},
      {"code past dictionary size",
       Crafted().u32(2).u32(2).str("a").str("bc").u8(2).u8(0x0c).s, 2},
      // Every slot names one entry of 65537 bytes: 2^32 + 2^16 bytes.
      {"total length past 32-bit offsets",
       Crafted().u32(kSlots).u32(1).str(wide).u8(0).s, kSlots},
      {"more codes than slots", Crafted().u32(kSlots + 1).u32(1).str("a").u8(
                                    0).s,
       kSlots},
      {"huge code count", Crafted().u32(0xFFFFFFFF).u32(1).str("a").u8(0).s,
       kSlots},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    StringPool pool;
    const Status s = decode(c.lane, c.count, &pool);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(pool.allocated_bytes(), 0u);
  }

  // The same overflowing lane inside a checkpoint, under LoadIndex: one
  // full group of a table (id INT64, s STRING).
  auto schema = std::make_shared<Schema>(
      1, "t",
      std::vector<ColumnDef>{{"id", DataType::kInt64, false, true},
                             {"s", DataType::kString, false, true}},
      0);
  std::string ids;
  IntCodec::Encode(std::vector<int64_t>(kSlots, 0), &ids);
  const std::string nulls(kSlots, '\0');
  Crafted ckpt = Crafted().u32(1).u64(0).u64(kSlots).u32(kSlots).u64(1);
  ckpt.u8(1).u32(kSlots);
  ckpt.u8(static_cast<uint8_t>(DataType::kInt64)).str(nulls).str(ids);
  ckpt.u8(static_cast<uint8_t>(DataType::kString)).str(nulls).str(
      Crafted().u32(kSlots).u32(1).str(wide).u8(0).s);
  ColumnIndex index(schema);
  Status s;
  EXPECT_NO_THROW(s = ImciCheckpoint::LoadIndex(ckpt.s, &index));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

}  // namespace
}  // namespace imci
