#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/rng.h"
#include "tests/test_util.h"

namespace imci {
namespace {

std::shared_ptr<const Schema> SimpleSchema(TableId id = 1) {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  cols.push_back({"s", DataType::kString, true, true});
  return std::make_shared<Schema>(id, "t" + std::to_string(id), cols, 0);
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    opts_.initial_ro_nodes = 1;
    opts_.ro.imci.row_group_size = 256;  // small groups: exercise boundaries
    opts_.ro.replication.maintenance_interval = 4;
    cluster_ = std::make_unique<Cluster>(opts_);
    ASSERT_TRUE(cluster_->CreateTable(SimpleSchema()).ok());
    ASSERT_TRUE(cluster_->Open().ok());
    ro_ = cluster_->ro(0);
    txns_ = cluster_->rw()->txn_manager();
  }

  // Verifies that the RO column index contents equal the RW row store.
  void ExpectConverged(TableId table = 1) {
    ColumnIndex* index = ro_->imci()->GetIndex(table);
    ASSERT_NE(index, nullptr);
    const Vid read_vid = ro_->applied_vid();
    std::vector<std::string> rw_rows, ro_rows;
    ReadView view = txns_->OpenReadView();
    (void)txns_->Scan(view, table, [&](int64_t /*pk*/, const Row& row) {
      std::string s;
      for (const Value& v : row) s += ValueToString(v) + "|";
      rw_rows.push_back(std::move(s));
      return true;
    });
    const size_t ngroups = index->num_groups();
    for (size_t g = 0; g < ngroups; ++g) {
      auto grp = index->group(g);
      if (!grp) continue;
      const uint32_t used = index->GroupUsed(g);
      for (uint32_t off = 0; off < used; ++off) {
        if (!grp->Visible(off, read_vid)) continue;
        Row row;
        ASSERT_TRUE(index->MaterializeRow(grp->base_rid() + off, &row).ok());
        std::string s;
        for (const Value& v : row) s += ValueToString(v) + "|";
        ro_rows.push_back(std::move(s));
      }
    }
    std::sort(rw_rows.begin(), rw_rows.end());
    std::sort(ro_rows.begin(), ro_rows.end());
    EXPECT_EQ(rw_rows, ro_rows);
  }

  void CatchUp() { ASSERT_TRUE(ro_->CatchUpNow().ok()); }

  ClusterOptions opts_;
  std::unique_ptr<Cluster> cluster_;
  RoNode* ro_ = nullptr;
  TransactionManager* txns_ = nullptr;
};

TEST_F(ReplicationTest, InsertPropagates) {
  Transaction txn;
  txns_->Begin(&txn);
  ASSERT_TRUE(txns_->Insert(&txn, 1, {int64_t(1), int64_t(10),
                                      std::string("a")}).ok());
  ASSERT_TRUE(txns_->Insert(&txn, 1, {int64_t(2), int64_t(20), Value{}}).ok());
  ASSERT_TRUE(txns_->Commit(&txn).ok());
  CatchUp();
  EXPECT_EQ(ro_->applied_vid(), txn.commit_vid());
  ExpectConverged();
  Row row;
  ASSERT_TRUE(ro_->imci()->GetIndex(1)->LookupByPk(2, ro_->applied_vid(),
                                                   &row).ok());
  EXPECT_EQ(AsInt(row[1]), 20);
  EXPECT_TRUE(IsNull(row[2]));
}

TEST_F(ReplicationTest, UpdateBecomesOutOfPlaceDeleteInsert) {
  Transaction txn;
  txns_->Begin(&txn);
  ASSERT_TRUE(txns_->Insert(&txn, 1, {int64_t(1), int64_t(10),
                                      std::string("x")}).ok());
  ASSERT_TRUE(txns_->Commit(&txn).ok());
  CatchUp();
  const Vid v1 = ro_->applied_vid();

  Transaction txn2;
  txns_->Begin(&txn2);
  ASSERT_TRUE(txns_->Update(&txn2, 1, 1,
                            {int64_t(1), int64_t(99), std::string("y")}).ok());
  ASSERT_TRUE(txns_->Commit(&txn2).ok());
  CatchUp();
  const Vid v2 = ro_->applied_vid();
  ASSERT_GT(v2, v1);

  ColumnIndex* index = ro_->imci()->GetIndex(1);
  // Snapshot at v1 still sees the old version; v2 sees the new one.
  Row row;
  ASSERT_TRUE(index->LookupByPk(1, v2, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 99);
  // The old version occupies RID 0 and is visible at v1.
  auto g0 = index->group(0);
  EXPECT_TRUE(g0->Visible(0, v1));
  EXPECT_FALSE(g0->Visible(0, v2));
  ExpectConverged();
}

TEST_F(ReplicationTest, AbortLeavesNoTrace) {
  Transaction txn;
  txns_->Begin(&txn);
  ASSERT_TRUE(txns_->Insert(&txn, 1, {int64_t(7), int64_t(1), Value{}}).ok());
  ASSERT_TRUE(txns_->Rollback(&txn).ok());
  Transaction txn2;  // a later commit so the RO advances
  txns_->Begin(&txn2);
  ASSERT_TRUE(txns_->Insert(&txn2, 1, {int64_t(8), int64_t(2), Value{}}).ok());
  ASSERT_TRUE(txns_->Commit(&txn2).ok());
  CatchUp();
  Row row;
  EXPECT_TRUE(ro_->imci()->GetIndex(1)
                  ->LookupByPk(7, ro_->applied_vid(), &row)
                  .IsNotFound());
  ExpectConverged();
}

TEST_F(ReplicationTest, DeletePropagates) {
  Transaction txn;
  txns_->Begin(&txn);
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(txns_->Insert(&txn, 1, {i, i * 10, Value{}}).ok());
  }
  ASSERT_TRUE(txns_->Commit(&txn).ok());
  Transaction txn2;
  txns_->Begin(&txn2);
  ASSERT_TRUE(txns_->Delete(&txn2, 1, 5).ok());
  ASSERT_TRUE(txns_->Commit(&txn2).ok());
  CatchUp();
  Row row;
  EXPECT_TRUE(ro_->imci()->GetIndex(1)
                  ->LookupByPk(5, ro_->applied_vid(), &row)
                  .IsNotFound());
  ExpectConverged();
}

TEST_F(ReplicationTest, SmoRecordsNeverSurfaceAsDmls) {
  // Enough inserts to split leaves repeatedly; every SMO is TID 0 and must
  // not produce logical DMLs (row counts would diverge otherwise).
  for (int64_t i = 0; i < 2000; ++i) {
    Transaction txn;
    txns_->Begin(&txn);
    ASSERT_TRUE(txns_->Insert(&txn, 1, {i, i, std::string(100, 'x')}).ok());
    ASSERT_TRUE(txns_->Commit(&txn).ok());
  }
  CatchUp();
  ColumnIndex* index = ro_->imci()->GetIndex(1);
  EXPECT_EQ(index->visible_rows(ro_->applied_vid()), 2000u);
  ExpectConverged();
}

TEST_F(ReplicationTest, LargeTransactionPreCommit) {
  opts_.ro.replication.large_txn_dml_threshold = 64;
  // Rebuild a cluster with a small pre-commit threshold.
  cluster_ = std::make_unique<Cluster>(opts_);
  ASSERT_TRUE(cluster_->CreateTable(SimpleSchema()).ok());
  ASSERT_TRUE(cluster_->Open().ok());
  ro_ = cluster_->ro(0);
  txns_ = cluster_->rw()->txn_manager();

  // Drive the pipeline synchronously: manual PollOnce must not race the
  // background coordinator.
  ro_->StopReplication();
  Transaction big;
  txns_->Begin(&big);
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(txns_->Insert(&big, 1, {i, i, Value{}}).ok());
  }
  // Ship the uncommitted bulk; the RO should pre-commit (invisible rows).
  ASSERT_TRUE(ro_->pipeline()->PollOnce().ok());
  ASSERT_TRUE(ro_->pipeline()->PollOnce().ok());
  EXPECT_EQ(ro_->imci()->GetIndex(1)->visible_rows(ro_->applied_vid()), 0u);
  ASSERT_TRUE(txns_->Commit(&big).ok());
  CatchUp();
  EXPECT_GE(ro_->pipeline()->precommitted_txns(), 1u);
  EXPECT_EQ(ro_->imci()->GetIndex(1)->visible_rows(ro_->applied_vid()), 500u);
  ExpectConverged();
}

TEST_F(ReplicationTest, LargeTransactionAbortResidueInvisible) {
  opts_.ro.replication.large_txn_dml_threshold = 64;
  cluster_ = std::make_unique<Cluster>(opts_);
  ASSERT_TRUE(cluster_->CreateTable(SimpleSchema()).ok());
  ASSERT_TRUE(cluster_->Open().ok());
  ro_ = cluster_->ro(0);
  txns_ = cluster_->rw()->txn_manager();

  ro_->StopReplication();
  Transaction big;
  txns_->Begin(&big);
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(txns_->Insert(&big, 1, {i, i, Value{}}).ok());
  }
  ASSERT_TRUE(ro_->pipeline()->PollOnce().ok());
  ASSERT_TRUE(txns_->Rollback(&big).ok());
  Transaction marker;
  txns_->Begin(&marker);
  ASSERT_TRUE(txns_->Insert(&marker, 1, {int64_t(9999), int64_t(1),
                                         Value{}}).ok());
  ASSERT_TRUE(txns_->Commit(&marker).ok());
  CatchUp();
  EXPECT_EQ(ro_->imci()->GetIndex(1)->visible_rows(ro_->applied_vid()), 1u);
  ExpectConverged();
}

TEST_F(ReplicationTest, RandomizedConvergenceProperty) {
  Rng rng(123);
  std::vector<int64_t> live;
  for (int round = 0; round < 200; ++round) {
    Transaction txn;
    txns_->Begin(&txn);
    const int ops = 1 + rng.Next() % 8;
    bool ok = true;
    for (int i = 0; i < ops && ok; ++i) {
      const int action = rng.Next() % 3;
      if (action == 0 || live.empty()) {
        int64_t pk = static_cast<int64_t>(rng.Next() % 100000);
        if (txns_->Insert(&txn, 1,
                          {pk, static_cast<int64_t>(rng.Next() % 1000),
                           rng.RandomString(0, 20)})
                .ok()) {
          live.push_back(pk);
        }
      } else if (action == 1) {
        int64_t pk = live[rng.Next() % live.size()];
        (void)txns_->Update(&txn, 1,
                      pk, {pk, static_cast<int64_t>(rng.Next() % 1000),
                           rng.RandomString(0, 20)});
      } else {
        size_t idx = rng.Next() % live.size();
        if (txns_->Delete(&txn, 1, live[idx]).ok()) {
          live.erase(live.begin() + idx);
        }
      }
    }
    if (rng.Next() % 10 == 0) {
      (void)txns_->Rollback(&txn);
    } else {
      ASSERT_TRUE(txns_->Commit(&txn).ok());
    }
    // Rollback invalidates our `live` tracking; resync from the row store.
    if (txn.commit_vid() == 0) {
      live.clear();
      ReadView view = txns_->OpenReadView();
      (void)txns_->Scan(view, 1, [&](int64_t pk, const Row&) {
        live.push_back(pk);
        return true;
      });
    }
  }
  CatchUp();
  ExpectConverged();
}

TEST_F(ReplicationTest, ConcurrentWritersOnOneTableConverge) {
  // Regression: REDO records must be appended under the table write latch;
  // otherwise two RW threads can ship same-page slot operations in the
  // opposite order of their page modifications and Phase#1 corrupts the
  // replica (observed as hangs/crashes under the TPC-C bench).
  std::vector<std::thread> writers;
  std::atomic<int> committed{0};
  for (int w = 0; w < 8; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(500 + w);
      for (int i = 0; i < 200; ++i) {
        Transaction txn;
        txns_->Begin(&txn);
        const int64_t pk = w * 1000 + i;
        bool ok = txns_->Insert(&txn, 1, {pk, pk, rng.RandomString(5, 30)})
                      .ok();
        if (ok && i % 3 == 0) {
          ok = txns_->Update(&txn, 1, pk,
                             {pk, pk + 1, rng.RandomString(5, 30)}).ok();
        }
        if (ok && txns_->Commit(&txn).ok()) {
          committed.fetch_add(1);
        } else if (!ok) {
          (void)txns_->Rollback(&txn);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(committed.load(), 1600);
  CatchUp();
  ExpectConverged();
}

// Phase#1 never skips redo it cannot apply: a record that fails to decode
// or to apply stops the poll with Corruption before the record's LSN, and
// the running pipeline wedges with that reason instead of letting the
// replica diverge silently.
TEST_F(ReplicationTest, UnappliableRedoWedgesInsteadOfSkipping) {
  RedoRecord unknown_table;
  unknown_table.type = RedoType::kInsert;
  unknown_table.tid = 777;
  unknown_table.table_id = 999;  // never created
  unknown_table.page_id = 4242;
  unknown_table.after_image = "row";
  RedoRecord bad_smo;
  bad_smo.type = RedoType::kSmo;
  bad_smo.page_images = {{4242, "not-a-page-image"}};
  struct Input {
    const char* name;
    const RedoRecord* rec;  // null: the payload is not a redo record
  };
  for (const Input& in : {Input{"not a record", nullptr},
                          Input{"unknown table", &unknown_table},
                          Input{"undecodable smo image", &bad_smo}}) {
    SCOPED_TRACE(in.name);
    cluster_ = std::make_unique<Cluster>(opts_);
    ASSERT_TRUE(cluster_->CreateTable(SimpleSchema()).ok());
    ASSERT_TRUE(cluster_->Open().ok());
    ro_ = cluster_->ro(0);
    txns_ = cluster_->rw()->txn_manager();
    ro_->StopReplication();
    // A valid transaction shares the chunk with the bad record.
    Transaction txn;
    txns_->Begin(&txn);
    ASSERT_TRUE(txns_->Insert(&txn, 1, {int64_t(1), int64_t(1), Value{}}).ok());
    ASSERT_TRUE(txns_->Commit(&txn).ok());

    LogStore* log = cluster_->fs()->log("redo");
    std::string payload = "garbage-bytes-not-a-record";
    if (in.rec != nullptr) {
      RedoRecord rec = *in.rec;
      rec.lsn = log->written_lsn() + 1;
      payload.clear();
      rec.Serialize(&payload);
    }
    const Lsn bad = log->Append({payload}, /*durable=*/true);
    ASSERT_GT(bad, 0u);

    ReplicationPipeline* pipeline = ro_->pipeline();
    const Status polled = pipeline->PollOnce();
    EXPECT_TRUE(polled.IsCorruption()) << polled.ToString();
    EXPECT_NE(polled.message().find("LSN " + std::to_string(bad)),
              std::string::npos)
        << polled.ToString();
    EXPECT_LT(pipeline->read_lsn(), bad);

    ro_->StartReplication();
    Timer t;
    while (!pipeline->wedged() && t.ElapsedMicros() < 10'000'000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(pipeline->wedged());
    EXPECT_TRUE(pipeline->wedge_reason().IsCorruption())
        << pipeline->wedge_reason().ToString();
    EXPECT_TRUE(ro_->health().wedged);
    EXPECT_FALSE(ro_->healthy());
    EXPECT_LT(pipeline->read_lsn(), bad);
  }
}

TEST_F(ReplicationTest, CompactionPreservesContentAndReclaims) {
  // Use a cluster without background compaction so this test drives it.
  opts_.ro.replication.enable_compaction = false;
  cluster_ = std::make_unique<Cluster>(opts_);
  ASSERT_TRUE(cluster_->CreateTable(SimpleSchema()).ok());
  ASSERT_TRUE(cluster_->Open().ok());
  ro_ = cluster_->ro(0);
  txns_ = cluster_->rw()->txn_manager();
  // Fill two full groups then delete most rows.
  Transaction txn;
  txns_->Begin(&txn);
  for (int64_t i = 0; i < 512; ++i) {
    ASSERT_TRUE(txns_->Insert(&txn, 1, {i, i, Value{}}).ok());
  }
  ASSERT_TRUE(txns_->Commit(&txn).ok());
  Transaction txn2;
  txns_->Begin(&txn2);
  for (int64_t i = 0; i < 512; ++i) {
    if (i % 8 != 0) {
      ASSERT_TRUE(txns_->Delete(&txn2, 1, i).ok());
    }
  }
  ASSERT_TRUE(txns_->Commit(&txn2).ok());
  CatchUp();
  // Drive maintenance directly; must be serialized with Phase#2 appliers, so
  // stop the background pipeline first.
  ro_->StopReplication();
  ColumnIndex* index = ro_->imci()->GetIndex(1);
  const Vid vid = ro_->applied_vid();
  auto underflow = index->FindUnderflowGroups(vid);
  ASSERT_EQ(underflow.size(), 2u);  // both full groups are >50% deleted
  for (size_t gid : underflow) {
    uint32_t moved = 0;
    ASSERT_TRUE(index->CompactGroup(gid, vid, &moved).ok());
    EXPECT_GT(moved, 0u);
  }
  EXPECT_EQ(index->visible_rows(vid), 64u);
  ExpectConverged();
  EXPECT_GT(index->ReclaimRetired(vid), 0u);
  ExpectConverged();
}

}  // namespace
}  // namespace imci
