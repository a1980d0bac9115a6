#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "imci/rid_locator.h"
#include "rowstore/engine.h"
#include "tests/test_util.h"

namespace imci {
namespace {

std::shared_ptr<const Schema> ModelSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"payload", DataType::kString, true, true});
  return std::make_shared<Schema>(1, "t", cols, 0);
}

/// Model-based test: a random op sequence applied to both the page-based
/// B+tree (through RowTable) and a std::map reference; states must agree at
/// every checkpoint, and the scan must stay sorted.
class BTreeModelTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeModelTest, MatchesReferenceModel) {
  PolarFs fs;
  Catalog catalog;
  RowStoreEngine engine(&fs, &catalog);
  ASSERT_TRUE(engine.CreateTable(ModelSchema()).ok());
  RowTable* table = engine.GetTable(1);
  std::map<int64_t, std::string> model;
  const uint64_t seed = testing_util::TestSeed(GetParam());
  const int iters = testing_util::TestIters(4000);
  SCOPED_TRACE(::testing::Message() << "rerun with IMCI_TEST_SEED=" << seed
                                    << " IMCI_TEST_ITERS=" << iters);
  Rng rng(seed);
  std::vector<RedoRecord> redo;
  for (int op = 0; op < iters; ++op) {
    const int64_t pk = static_cast<int64_t>(rng.Next() % 800);
    const int action = rng.Next() % 3;
    redo.clear();
    if (action == 0) {
      std::string payload = rng.RandomString(0, 120);
      Status s = table->Insert({pk, payload}, &redo);
      if (model.count(pk)) {
        EXPECT_FALSE(s.ok()) << "duplicate insert must fail pk=" << pk;
      } else {
        ASSERT_TRUE(s.ok());
        model[pk] = payload;
      }
    } else if (action == 1) {
      std::string payload = rng.RandomString(0, 120);
      Status s = table->Update(pk, {pk, payload}, &redo);
      if (model.count(pk)) {
        ASSERT_TRUE(s.ok());
        model[pk] = payload;
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else {
      Status s = table->Delete(pk, &redo);
      if (model.count(pk)) {
        ASSERT_TRUE(s.ok());
        model.erase(pk);
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    }
    if (op % 500 == 499) {
      // Full-state comparison.
      // The writes carry no writer TID, so the table keeps no versions and
      // every snapshot reads the tree.
      std::map<int64_t, std::string> got;
      (void)table->SnapshotScan(0, [&](int64_t key, const Row& row) {
        got[key] = IsNull(row[1]) ? "" : AsString(row[1]);
        return true;
      });
      ASSERT_EQ(got.size(), model.size()) << "at op " << op;
      EXPECT_EQ(got, model) << "at op " << op;
      EXPECT_EQ(table->row_count(), model.size());
    }
  }
  // Range scans agree with the model too.
  for (int trial = 0; trial < 20; ++trial) {
    int64_t lo = static_cast<int64_t>(rng.Next() % 800);
    int64_t hi = lo + static_cast<int64_t>(rng.Next() % 100);
    size_t expect = std::distance(model.lower_bound(lo),
                                  model.upper_bound(hi));
    size_t got = 0;
    (void)table->SnapshotScanRange(0, lo, hi, [&](int64_t, const Row&) {
      ++got;
      return true;
    });
    EXPECT_EQ(got, expect) << "[" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeModelTest,
                         ::testing::Values(11, 22, 33, 44, 55));

/// Same approach for the RID locator (two-layer LSM): random put/erase
/// against a map, with small memtables to force flushes and merges.
class LocatorModelTest : public ::testing::TestWithParam<int> {};

TEST_P(LocatorModelTest, MatchesReferenceModel) {
  RidLocator locator(/*memtable_limit=*/RidLocator::kShards * 8);
  std::map<int64_t, Rid> model;
  const uint64_t seed = testing_util::TestSeed(GetParam());
  const int iters = testing_util::TestIters(20000);
  SCOPED_TRACE(::testing::Message() << "rerun with IMCI_TEST_SEED=" << seed
                                    << " IMCI_TEST_ITERS=" << iters);
  Rng rng(seed);
  for (int op = 0; op < iters; ++op) {
    const int64_t pk = static_cast<int64_t>(rng.Next() % 3000);
    if (rng.Next() % 3 != 0) {
      const Rid rid = rng.Next();
      locator.Put(pk, rid);
      model[pk] = rid;
    } else {
      locator.Erase(pk);
      model.erase(pk);
    }
    if (op % 2500 == 2499) {
      for (int64_t key = 0; key < 3000; key += 7) {
        Rid rid;
        Status s = locator.Get(key, &rid);
        auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_TRUE(s.IsNotFound()) << key;
        } else {
          ASSERT_TRUE(s.ok()) << key;
          EXPECT_EQ(rid, it->second) << key;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocatorModelTest,
                         ::testing::Values(5, 6, 7, 8));

/// Failure injection: a corrupted REDO entry in the shared log stops the
/// reader at the last record it decoded, with Corruption naming the bad
/// LSN — skipping it would let a replica diverge with no signal.
TEST(FailureInjectionTest, CorruptLogEntryStopsTheReader) {
  PolarFs fs;
  LogStore* log = fs.log("redo");
  RedoWriter writer(log);
  RedoRecord a;
  a.type = RedoType::kInsert;
  a.after_image = "good";
  Lsn last = 0;
  ASSERT_TRUE(writer.Append({&a, 1}, &last).ok());
  // A record whose *frame* is valid but whose payload is not a RedoRecord.
  const Lsn bad = log->Append({"garbage-bytes-not-a-record"}, false);
  RedoRecord b;
  b.type = RedoType::kCommit;
  b.commit_vid = 9;
  std::string buf;
  b.lsn = log->written_lsn() + 1;
  b.Serialize(&buf);
  log->Append({buf}, false);
  RedoReader reader(log);
  std::vector<RedoRecord> records;
  Status error;
  EXPECT_EQ(reader.Read(0, 100, &records, &error), bad - 1);
  EXPECT_TRUE(error.IsCorruption()) << error.ToString();
  EXPECT_NE(error.message().find("LSN " + std::to_string(bad)),
            std::string::npos);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, RedoType::kInsert);
  // A read that starts past the bad entry is unaffected by it.
  records.clear();
  EXPECT_EQ(reader.Read(bad, 100, &records, &error), bad + 1);
  EXPECT_TRUE(error.ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, RedoType::kCommit);
}

}  // namespace
}  // namespace imci
