// Chaos suite: the fault-injection substrate (common/fault.h) driven through
// the storage and replication stack end-to-end.
//
// Three layers are pinned here:
//  - Durability honesty: a batch fsync that fails must fail *every* commit
//    in the batch and poison the log — the durable watermark never advances
//    past an fsync that did not happen — and reopening recovers the store
//    clean at exactly the pre-batch watermark.
//  - Honest consumers: the replication coordinator absorbs transient source
//    read failures with bounded retry + backoff, and wedges (with the reason
//    preserved) instead of silently stalling when the failures persist.
//  - Self-healing fleet: the cluster health monitor evicts a wedged RO,
//    queries re-route to survivors (falling back to the RW when the fleet is
//    empty — graceful degradation, never a client-visible error), a
//    replacement boots from the shared store, converges, and is re-admitted.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "log/log_store.h"
#include "tests/test_util.h"

namespace imci {
namespace {

std::shared_ptr<const Schema> SimpleSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  return std::make_shared<Schema>(1, "t1", cols, 0);
}

/// Policy builder (Policy has too many knobs for designated init under
/// -Wmissing-field-initializers).
fault::Policy MakePolicy(fault::Kind kind, std::string scope = "",
                         uint64_t max_fires = UINT64_MAX,
                         uint32_t latency_us = 0) {
  fault::Policy p;
  p.kind = kind;
  p.scope = std::move(scope);
  p.max_fires = max_fires;
  p.latency_us = latency_us;
  return p;
}

/// Polls `pred` until true or `timeout_us` elapsed.
bool WaitUntil(const std::function<bool()>& pred,
               uint64_t timeout_us = 20'000'000) {
  Timer t;
  while (t.ElapsedMicros() < timeout_us) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return pred();
}

// --- Group commit under fsync faults ---------------------------------------

/// A bare RW commit path over one PolarFs (same rig as group_commit_test).
struct CommitRig {
  explicit CommitRig(PolarFs::Options fopts = {})
      : fs(fopts), engine(&fs, &catalog), redo(fs.log("redo")),
        binlog(fs.log("binlog")), txns(&engine, &redo, &locks, &binlog) {
    EXPECT_TRUE(engine.CreateTable(SimpleSchema()).ok());
  }
  PolarFs fs;
  Catalog catalog;
  RowStoreEngine engine;
  RedoWriter redo;
  LockManager locks;
  BinlogWriter binlog;
  TransactionManager txns;
};

Status CommitOne(CommitRig* rig, int64_t pk) {
  Transaction txn;
  rig->txns.Begin(&txn);
  Status s = rig->txns.Insert(&txn, 1, {pk, pk});
  if (!s.ok()) return s;
  return rig->txns.Commit(&txn);
}

TEST(ChaosGroupCommitTest, FsyncFaultFailsWholeBatchAndStoreReopensClean) {
  // Latency keeps each flush in flight long enough that concurrent
  // committers pile into one leader batch.
  PolarFs::Options fopts;
  fopts.fsync_latency_us = 200;
  CommitRig rig(fopts);
  for (int64_t pk = 0; pk < 8; ++pk) ASSERT_TRUE(CommitOne(&rig, pk).ok());
  LogStore* log = rig.fs.log("redo");
  const Lsn watermark = log->durable_lsn();
  ASSERT_EQ(log->written_lsn(), watermark);

  {
    fault::ScopedFault fsync_fail("polarfs.fsync",
                                  MakePolicy(fault::Kind::kFail));
    // Every commit across every batch must fail: either its own batch fsync
    // fails, or the poison latch refuses the append outright. No commit may
    // report durability the device never provided.
    const int kThreads = 4;
    const int kPerThread = 4;
    std::atomic<int> failed{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const int64_t pk = 1000 + int64_t(t) * 100 + i;
          if (!CommitOne(&rig, pk).ok()) failed.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(failed.load(), kThreads * kPerThread);
    EXPECT_TRUE(log->poisoned());
    // The un-fsynced tail is trimmed: the watermark did NOT advance, and the
    // written tail rolled back to it — device-side those bytes were never
    // guaranteed.
    EXPECT_EQ(log->durable_lsn(), watermark);
    EXPECT_EQ(log->written_lsn(), watermark);
  }

  // The fault is disarmed, but the poison latch persists: the store refuses
  // commits until it is explicitly re-opened (no silent self-heal that could
  // mask the lost tail).
  EXPECT_FALSE(CommitOne(&rig, 5000).ok());

  // Reopen recovers clean at exactly the pre-batch watermark...
  ASSERT_TRUE(rig.fs.ReopenLogs().ok());
  EXPECT_FALSE(log->poisoned());
  EXPECT_EQ(log->written_lsn(), watermark);
  EXPECT_EQ(log->durable_lsn(), watermark);
  // ...and the recovered records are exactly the pre-fault history.
  std::vector<std::string> records;
  Status read_error;
  log->Read(0, watermark, &records, &read_error);
  ASSERT_TRUE(read_error.ok());

  // Clean resumption: new commits append and become durable past the
  // recovered watermark.
  ASSERT_TRUE(CommitOne(&rig, 6000).ok());
  EXPECT_GT(log->durable_lsn(), watermark);
}

TEST(ChaosGroupCommitTest, PoisonedDurableAppendsFailFastUntilReopen) {
  PolarFs fs;
  LogStore* log = fs.log("redo");
  const Lsn durable = log->Append({"a", "b", "c"}, /*durable=*/true);
  ASSERT_GT(durable, 0u);
  ASSERT_EQ(log->durable_lsn(), durable);

  {
    fault::ScopedFault fsync_fail("polarfs.fsync",
                                  MakePolicy(fault::Kind::kFail));
    Status error;
    EXPECT_EQ(log->Append({"lost"}, /*durable=*/true, &error), 0u);
    EXPECT_TRUE(error.IsIOError()) << error.ToString();
    EXPECT_TRUE(log->poisoned());
    // Fail-fast while poisoned: no fsync is even attempted.
    Status again;
    EXPECT_EQ(log->Append({"refused"}, /*durable=*/true, &again), 0u);
    EXPECT_TRUE(again.IsIOError()) << again.ToString();
  }
  EXPECT_EQ(log->written_lsn(), durable);

  ASSERT_TRUE(fs.ReopenLogs().ok());
  EXPECT_FALSE(log->poisoned());
  std::vector<std::string> records;
  Status read_error;
  log->Read(0, log->written_lsn(), &records, &read_error);
  ASSERT_TRUE(read_error.ok());
  ASSERT_EQ(records.size(), 3u);  // the lost tail never resurfaces
  EXPECT_EQ(records[2], "c");
  EXPECT_GT(log->Append({"d"}, /*durable=*/true), durable);
}

// --- Refused redo appends on the RW path -----------------------------------
// Every redo append's outcome is honoured. A refused DML record already
// changed a page, so it poisons the log and fails the statement; the
// transaction can never commit. A refused commit record changed nothing: the
// transaction rolls back and the same row can be written again.

class RefusedAppendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rw_.CreateTable(SimpleSchema()).ok());
    ASSERT_TRUE(rw_.BulkLoad(1, {{int64_t(0), int64_t(0)}}).ok());
    ASSERT_TRUE(rw_.FinishLoad().ok());
  }
  void TearDown() override { fault::Registry::Instance().Reset(); }

  /// Refuses the `n`-th redo/binlog append from now (only the redo log is
  /// written here: the binlog arm is off).
  static fault::Policy RefuseAppend(uint64_t n) {
    fault::Policy p = MakePolicy(fault::Kind::kFail);
    p.hit_at = n;
    return p;
  }

  /// Rows of table 1 on an RO booted from the shared store.
  std::vector<Row> BootedRoRows() {
    RoNode node("ro", &fs_, &catalog_, RoNodeOptions{});
    std::vector<Row> rows;
    EXPECT_TRUE(node.Boot().ok());
    EXPECT_TRUE(node.CatchUpNow().ok());
    EXPECT_TRUE(node.ExecuteColumn(LScan(1, {0, 1}), &rows).ok());
    return rows;
  }

  /// Expects table 1 to hold exactly `want` on the RW (a snapshot scan)
  /// and on an RO booted from the shared store (column index and row
  /// replica).
  void ExpectEveryEngineHolds(const std::vector<Row>& want) {
    TransactionManager* txns = rw_.txn_manager();
    std::vector<Row> rw_rows;
    {
      ReadView view = txns->OpenReadView();
      ASSERT_TRUE(txns->Scan(view, 1, [&](int64_t, const Row& row) {
                        rw_rows.push_back(row);
                        return true;
                      }).ok());
    }
    EXPECT_EQ(testing_util::Canonicalize(rw_rows),
              testing_util::Canonicalize(want));
    RoNode node("ro", &fs_, &catalog_, RoNodeOptions{});
    ASSERT_TRUE(node.Boot().ok());
    ASSERT_TRUE(node.CatchUpNow().ok());
    std::vector<Row> column_rows;
    std::vector<Row> replica_rows;
    ASSERT_TRUE(node.ExecuteColumn(LScan(1, {0, 1}), &column_rows).ok());
    ASSERT_TRUE(node.ExecuteRow(LScan(1, {0, 1}), &replica_rows).ok());
    EXPECT_EQ(testing_util::Canonicalize(column_rows),
              testing_util::Canonicalize(want));
    EXPECT_EQ(testing_util::Canonicalize(replica_rows),
              testing_util::Canonicalize(want));
  }

  PolarFs fs_;
  Catalog catalog_;
  RwNode rw_{&fs_, &catalog_};
};

TEST_F(RefusedAppendTest, RefusedDmlAppendFailsStatementAndCommit) {
  TransactionManager* txns = rw_.txn_manager();
  Transaction txn;
  txns->Begin(&txn);
  {
    fault::ScopedFault refuse("logstore.append", RefuseAppend(1));
    EXPECT_FALSE(txns->Insert(&txn, 1, {int64_t(7), int64_t(7)}).ok());
  }
  EXPECT_TRUE(fs_.log("redo")->poisoned());
  EXPECT_FALSE(txns->Commit(&txn).ok());
  Row row;
  {
    ReadView view = txns->OpenReadView();
    EXPECT_TRUE(txns->Get(view, 1, 7, &row).IsNotFound());
  }
  ASSERT_TRUE(fs_.ReopenLogs().ok());
  const std::vector<Row> ro_rows = BootedRoRows();
  ASSERT_EQ(ro_rows.size(), 1u);
  EXPECT_EQ(AsInt(ro_rows[0][0]), 0);
}

TEST_F(RefusedAppendTest, RefusedCommitRecordRollsBackAndRetryCommits) {
  TransactionManager* txns = rw_.txn_manager();
  Transaction txn;
  txns->Begin(&txn);
  {
    // Append 1 is the insert's DML record, append 2 its commit record.
    fault::ScopedFault refuse("logstore.append", RefuseAppend(2));
    ASSERT_TRUE(txns->Insert(&txn, 1, {int64_t(7), int64_t(7)}).ok());
    EXPECT_FALSE(txns->Commit(&txn).ok());
  }
  EXPECT_FALSE(fs_.log("redo")->poisoned());
  Transaction retry;
  txns->Begin(&retry);
  ASSERT_TRUE(txns->Insert(&retry, 1, {int64_t(7), int64_t(8)}).ok());
  ASSERT_TRUE(txns->Commit(&retry).ok());
  Row row;
  ASSERT_TRUE(txns->Get(1, 7, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 8);
  ASSERT_TRUE(fs_.ReopenLogs().ok());
  EXPECT_EQ(testing_util::Canonicalize(BootedRoRows()),
            testing_util::Canonicalize(
                {{int64_t(0), int64_t(0)}, {int64_t(7), int64_t(8)}}));
}

TEST_F(RefusedAppendTest, RefusedShipCannotCommitAfterReopen) {
  TransactionManager* txns = rw_.txn_manager();
  {
    // A committed row after the refused insert's slot: compensation shipped
    // for the trimmed inserts would delete it from a replica's page.
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Insert(&txn, 1, {int64_t(10), int64_t(10)}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  Transaction txn;
  txns->Begin(&txn);
  ASSERT_TRUE(txns->Insert(&txn, 1, {int64_t(5), int64_t(5)}).ok());
  {
    fault::ScopedFault refuse("logstore.append", RefuseAppend(1));
    EXPECT_FALSE(txns->Insert(&txn, 1, {int64_t(7), int64_t(7)}).ok());
  }
  // The reopen trims the un-fsynced insert of 5 too; the transaction's
  // in-memory writes are all that is left of it.
  ASSERT_TRUE(fs_.ReopenLogs().ok());
  EXPECT_FALSE(txns->Insert(&txn, 1, {int64_t(8), int64_t(8)}).ok());
  EXPECT_FALSE(txns->Commit(&txn).ok());
  {
    // The log is healthy again: later transactions commit, and their page
    // records land where the replica's pages agree with the RW's.
    Transaction next;
    txns->Begin(&next);
    ASSERT_TRUE(txns->Insert(&next, 1, {int64_t(3), int64_t(3)}).ok());
    ASSERT_TRUE(txns->Update(&next, 1, 10, {int64_t(10), int64_t(11)}).ok());
    ASSERT_TRUE(txns->Commit(&next).ok());
  }
  ExpectEveryEngineHolds({{int64_t(0), int64_t(0)},
                          {int64_t(3), int64_t(3)},
                          {int64_t(10), int64_t(11)}});
}

TEST_F(RefusedAppendTest, PoisonCutsOtherOpenTransactions) {
  TransactionManager* txns = rw_.txn_manager();
  // The victim's insert ships but no batch fsync covers it yet.
  Transaction victim;
  txns->Begin(&victim);
  ASSERT_TRUE(txns->Insert(&victim, 1, {int64_t(5), int64_t(5)}).ok());
  ASSERT_GT(fs_.log("redo")->written_lsn(), fs_.log("redo")->durable_lsn());
  {
    // Another transaction's refused DML poisons the log, and the cut takes
    // the victim's record with it.
    Transaction other;
    txns->Begin(&other);
    fault::ScopedFault refuse("logstore.append", RefuseAppend(1));
    EXPECT_FALSE(txns->Insert(&other, 1, {int64_t(7), int64_t(7)}).ok());
    EXPECT_FALSE(txns->Commit(&other).ok());
  }
  ASSERT_TRUE(fs_.ReopenLogs().ok());
  // A restarted RW would have lost the victim; committing it here would put
  // a commit record in the log without the insert it commits.
  EXPECT_FALSE(txns->Commit(&victim).ok());
  ExpectEveryEngineHolds({{int64_t(0), int64_t(0)}});
  // The victim left nothing behind: pk 5 is free on every engine.
  Transaction next;
  txns->Begin(&next);
  ASSERT_TRUE(txns->Insert(&next, 1, {int64_t(5), int64_t(6)}).ok());
  ASSERT_TRUE(txns->Commit(&next).ok());
  ExpectEveryEngineHolds({{int64_t(0), int64_t(0)}, {int64_t(5), int64_t(6)}});
}

TEST_F(RefusedAppendTest, PoisonSparesOpenTransactionsBelowTheCut) {
  TransactionManager* txns = rw_.txn_manager();
  Transaction survivor;
  txns->Begin(&survivor);
  ASSERT_TRUE(txns->Insert(&survivor, 1, {int64_t(5), int64_t(5)}).ok());
  {
    // This commit's batch fsync also covers the survivor's insert.
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Insert(&txn, 1, {int64_t(9), int64_t(9)}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  ASSERT_EQ(fs_.log("redo")->written_lsn(), fs_.log("redo")->durable_lsn());
  {
    Transaction other;
    txns->Begin(&other);
    fault::ScopedFault refuse("logstore.append", RefuseAppend(1));
    EXPECT_FALSE(txns->Insert(&other, 1, {int64_t(7), int64_t(7)}).ok());
    EXPECT_FALSE(txns->Commit(&other).ok());
  }
  ASSERT_TRUE(fs_.ReopenLogs().ok());
  // The cut kept the survivor's insert, so it goes on: refusing it now
  // would leave that insert on replicas with no decision behind it.
  ASSERT_TRUE(txns->Update(&survivor, 1, 5, {int64_t(5), int64_t(6)}).ok());
  ASSERT_TRUE(txns->Commit(&survivor).ok());
  ExpectEveryEngineHolds({{int64_t(0), int64_t(0)},
                          {int64_t(5), int64_t(6)},
                          {int64_t(9), int64_t(9)}});
}

// --- Snapshot visibility vs durability under fsync refusal -----------------
// A commit becomes visible only once its record is durable, so a commit whose
// batch fsync is refused must never become visible — not in the failure
// window, not after the store reopens, and (the subtle half) not after LATER
// commits publish higher VIDs. The last case is what
// TransactionManager::RetractLostCommit exists for: the failed commit's
// versions were already stamped with its VID, and without retraction the next
// successful publication would expose them even though the trimmed log no
// longer contains the commit.
TEST(DurableVisibilityTest, LostCommitNeverBecomesVisible) {
  CommitRig rig;
  RowTable* table = rig.engine.GetTable(1);
  // The lost commit inserts 2, updates 4, deletes 5, and re-inserts 6 over
  // a committed delete its chain still holds: every restore target of the
  // retraction (absent, an image, a committed delete).
  for (int64_t pk : {1, 4, 5, 6}) ASSERT_TRUE(CommitOne(&rig, pk).ok());
  {
    Transaction del;
    rig.txns.Begin(&del);
    ASSERT_TRUE(rig.txns.Delete(&del, 1, 6).ok());
    ASSERT_TRUE(rig.txns.Commit(&del).ok());
  }
  ASSERT_GT(table->VersionChainLength(6), 0u);
  auto expect_durable_state = [&](const ReadView& view, const char* when) {
    Row row;
    EXPECT_TRUE(rig.txns.Get(view, 1, 2, &row).IsNotFound()) << when;
    ASSERT_TRUE(rig.txns.Get(view, 1, 4, &row).ok()) << when;
    EXPECT_EQ(AsInt(row[1]), 4) << when;
    EXPECT_TRUE(rig.txns.Get(view, 1, 5, &row).ok()) << when;
    EXPECT_TRUE(rig.txns.Get(view, 1, 6, &row).IsNotFound()) << when;
  };
  {
    fault::ScopedFault refuse("polarfs.fsync", MakePolicy(fault::Kind::kFail));
    Transaction txn;
    rig.txns.Begin(&txn);
    ASSERT_TRUE(rig.txns.Insert(&txn, 1, {int64_t(2), int64_t(2)}).ok());
    ASSERT_TRUE(rig.txns.Update(&txn, 1, 4, {int64_t(4), int64_t(40)}).ok());
    ASSERT_TRUE(rig.txns.Delete(&txn, 1, 5).ok());
    ASSERT_TRUE(rig.txns.Insert(&txn, 1, {int64_t(6), int64_t(60)}).ok());
    EXPECT_FALSE(rig.txns.Commit(&txn).ok());
    expect_durable_state(rig.txns.OpenReadView(),
                         "lost commit leaked into the failure window");
  }
  ASSERT_TRUE(rig.fs.ReopenLogs().ok());
  // A later commit publishes a higher VID. Without the retract, the lost
  // commit's stamped versions would ride along into visibility here.
  ASSERT_TRUE(CommitOne(&rig, 3).ok());
  ReadView view = rig.txns.OpenReadView();
  Row row;
  EXPECT_TRUE(rig.txns.Get(view, 1, 3, &row).ok());
  expect_durable_state(view,
                       "trimmed commit resurfaced after a later publication");
  // The physical state agrees with the logical one: the tree images were
  // restored under the still-held locks, so a full scan shows exactly the
  // durable history, and so does the tree itself.
  std::vector<Row> rows;
  ASSERT_TRUE(rig.txns.Scan(view, 1, [&](int64_t, const Row& r) {
    rows.push_back(r);
    return true;
  }).ok());
  const std::vector<Row> durable = {{int64_t(1), int64_t(1)},
                                    {int64_t(3), int64_t(3)},
                                    {int64_t(4), int64_t(4)},
                                    {int64_t(5), int64_t(5)}};
  EXPECT_EQ(testing_util::Canonicalize(rows),
            testing_util::Canonicalize(durable));
  rows.clear();
  for (int64_t pk = 1; pk <= 6; ++pk) {
    if (table->Get(pk, &row).ok()) rows.push_back(row);
  }
  EXPECT_EQ(testing_util::Canonicalize(rows),
            testing_util::Canonicalize(durable));
  EXPECT_EQ(table->row_count(), durable.size());
}

// --- Replication pipeline under read faults --------------------------------

class ChaosClusterTest : public ::testing::Test {
 protected:
  void Build(int ros, FleetHealthOptions health = {}) {
    ClusterOptions opts;
    opts.initial_ro_nodes = ros;
    opts.ro.imci.row_group_size = 256;
    // Fast failure detection for tests: wedge after ~3 retries x ~100us.
    opts.ro.replication.max_transient_retries = 3;
    opts.ro.replication.retry_backoff_us = 100;
    opts.ro.replication.retry_backoff_cap_us = 1'000;
    opts.ro.replication.poll_timeout_us = 500;
    opts.health = health;
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(cluster_->CreateTable(SimpleSchema()).ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 200; ++i) rows.push_back({i, i});
    ASSERT_TRUE(cluster_->BulkLoad(1, std::move(rows)).ok());
    ASSERT_TRUE(cluster_->Open().ok());
    committed_ = 200;
  }

  void Churn(int n) {
    auto* txns = cluster_->rw()->txn_manager();
    for (int i = 0; i < n; ++i) {
      Transaction txn;
      txns->Begin(&txn);
      ASSERT_TRUE(
          txns->Insert(&txn, 1, {int64_t(10000 + committed_), int64_t(i)})
              .ok());
      ASSERT_TRUE(txns->Commit(&txn).ok());
      ++committed_;
    }
  }

  LogicalRef CountPlan() {
    return LAgg(LScan(1, {0}), {}, {AggSpec{AggKind::kCountStar, nullptr}});
  }

  std::unique_ptr<Cluster> cluster_;
  int64_t committed_ = 0;
};

// --- Strong reads under fsync refusal and replication stalls ---------------

// A refused batch fsync trims the failed commit from the log, so no RO can
// ever apply it. The strong-read floor (the RW's published commit point)
// must therefore never name it: the read sees the durable commit before the
// refusal and not the lost one, and it returns instead of waiting forever.
TEST_F(ChaosClusterTest, StrongReadAfterRefusedFsyncSeesOnlyDurableCommits) {
  Build(1);  // no health monitor: nothing evicts the RO under the read
  auto* txns = cluster_->rw()->txn_manager();
  auto insert = [&](int64_t pk) {
    Transaction txn;
    txns->Begin(&txn);
    EXPECT_TRUE(txns->Insert(&txn, 1, {pk, pk}).ok());
    return txns->Commit(&txn);
  };
  ASSERT_TRUE(insert(20'000).ok());  // A: durable
  {
    fault::ScopedFault refuse("polarfs.fsync", MakePolicy(fault::Kind::kFail));
    EXPECT_FALSE(insert(20'001).ok());  // B: refused, trimmed from the log
  }
  auto read = std::async(std::launch::async, [&] {
    std::vector<Row> out;
    Status s = cluster_->proxy()->ExecuteQuery(CountPlan(), &out,
                                               Consistency::kStrong);
    return s.ok() && !out.empty() ? AsInt(out[0][0]) : int64_t{-1};
  });
  const bool returned =
      read.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  EXPECT_TRUE(returned) << "strong read waits on the refused commit's VID";
  if (!returned) {
    // Unblock the waiter so the suite does not hang: after a reopen, one
    // more durable commit carries the RO past the floor.
    EXPECT_TRUE(cluster_->fs()->ReopenLogs().ok());
    EXPECT_TRUE(insert(20'002).ok());
  }
  const int64_t count = read.get();
  if (returned) {
    EXPECT_EQ(count, committed_ + 1) << "A counted, B not";
  }
}

// A healthy RO whose replication stalls in storage must not hold a strong
// read hostage: the wait is bounded, and the RW serves the read instead.
TEST_F(ChaosClusterTest, StrongReadOnStalledRoIsBoundedAndServedByRw) {
  Build(1);  // no health monitor: the stalled RO stays in the fleet
  RoNode* ro = cluster_->ro(0);
  ASSERT_TRUE(ro->CatchUpNow().ok());
  fault::ScopedFault stall(
      "logstore.read", MakePolicy(fault::Kind::kLatency, "ro1", UINT64_MAX,
                                  /*latency_us=*/3'000'000));
  Churn(1);
  Timer t;
  std::vector<Row> out;
  ASSERT_TRUE(cluster_->proxy()
                  ->ExecuteQuery(CountPlan(), &out, Consistency::kStrong)
                  .ok());
  EXPECT_LT(t.ElapsedMicros(), 2'000'000u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(AsInt(out[0][0]), committed_);  // the new row is counted
  EXPECT_TRUE(ro->healthy());
  EXPECT_EQ(cluster_->proxy()->rw_fallbacks(), 1u);
}

TEST_F(ChaosClusterTest, TransientReadFaultsAbsorbedByBoundedRetry) {
  Build(1);
  RoNode* ro = cluster_->ro(0);
  ASSERT_EQ(ro->name(), "ro1");
  // Two read failures, then the device recovers: the coordinator's bounded
  // retry (3 attempts) must absorb them without wedging.
  fault::ScopedFault blip("logstore.read",
                          MakePolicy(fault::Kind::kFail, "ro1",
                                     /*max_fires=*/2));
  Churn(50);
  ASSERT_TRUE(WaitUntil(
      [&] { return ro->pipeline()->transient_retries() >= 2; }));
  ASSERT_TRUE(ro->CatchUpNow().ok());
  EXPECT_FALSE(ro->pipeline()->wedged());
  EXPECT_TRUE(ro->healthy());
  std::vector<Row> out;
  ASSERT_TRUE(ro->ExecuteColumn(CountPlan(), &out).ok());
  EXPECT_EQ(AsInt(out[0][0]), committed_);
}

TEST_F(ChaosClusterTest, PersistentReadFaultsWedgeWithReasonNotSilentStall) {
  Build(1);
  RoNode* ro = cluster_->ro(0);
  fault::ScopedFault storm("logstore.read",
                           MakePolicy(fault::Kind::kFail, "ro1"));
  Churn(5);  // there is history the node can no longer read
  ASSERT_TRUE(WaitUntil([&] { return ro->pipeline()->wedged(); }));
  // The terminal state is honest: reason preserved, health surface flipped,
  // and a catch-up wait returns the failure instead of hanging.
  EXPECT_TRUE(ro->pipeline()->wedge_reason().IsIOError())
      << ro->pipeline()->wedge_reason().ToString();
  EXPECT_FALSE(ro->healthy());
  EXPECT_TRUE(ro->health().wedged);
  EXPECT_FALSE(ro->CatchUpNow().ok());
  // Retries were bounded, not infinite.
  EXPECT_GE(ro->pipeline()->transient_retries(), 3u);
}

// A failed leader checkpoint leaves replication running (the previous
// checkpoint still anchors boots) but shows in the node's health sample,
// and CURRENT keeps naming the previous checkpoint.
TEST_F(ChaosClusterTest, FailedCheckpointSurfacesInHealthNotWedge) {
  Build(1);
  RoNode* leader = cluster_->leader();
  ASSERT_NE(leader, nullptr);
  ASSERT_EQ(leader->name(), "ro1");
  std::string current;
  ASSERT_TRUE(cluster_->TriggerCheckpoint().ok());
  ASSERT_TRUE(WaitUntil([&] {
    return cluster_->fs()->ReadFile("imci_ckpt/CURRENT", &current).ok();
  }));
  EXPECT_TRUE(leader->health().checkpoint_error.ok());
  {
    fault::ScopedFault refuse("polarfs.write_file",
                              MakePolicy(fault::Kind::kFail, "ro1"));
    Churn(5);
    ASSERT_TRUE(cluster_->TriggerCheckpoint().ok());
    ASSERT_TRUE(
        WaitUntil([&] { return !leader->health().checkpoint_error.ok(); }));
  }
  const RoNode::Health h = leader->health();
  EXPECT_TRUE(h.checkpoint_error.IsIOError()) << h.checkpoint_error.ToString();
  EXPECT_FALSE(h.wedged);
  EXPECT_TRUE(leader->healthy());
  Churn(5);
  ASSERT_TRUE(leader->CatchUpNow().ok());
  std::vector<Row> out;
  ASSERT_TRUE(leader->ExecuteColumn(CountPlan(), &out).ok());
  EXPECT_EQ(AsInt(out[0][0]), committed_);
  std::string after;
  ASSERT_TRUE(cluster_->fs()->ReadFile("imci_ckpt/CURRENT", &after).ok());
  EXPECT_EQ(after, current);
}

TEST_F(ChaosClusterTest, ProxySkipsWedgedNodeAndServesFromSurvivor) {
  Build(2);  // no health monitor: routing alone must degrade gracefully
  RoNode* ro1 = cluster_->ro(0);
  RoNode* ro2 = cluster_->ro(1);
  ASSERT_EQ(ro1->name(), "ro1");
  fault::ScopedFault storm("logstore.read",
                           MakePolicy(fault::Kind::kFail, "ro1"));
  Churn(30);
  ASSERT_TRUE(WaitUntil([&] { return ro1->pipeline()->wedged(); }));
  // The proxy never routes to the wedged node again...
  for (int i = 0; i < 10; ++i) EXPECT_EQ(cluster_->proxy()->PickRo(), ro2);
  // ...and both eventual and strong reads keep succeeding on the survivor
  // (strong: the healthy node catches up; the wedged one is never waited on).
  std::vector<Row> out;
  ASSERT_TRUE(cluster_->proxy()
                  ->ExecuteQuery(CountPlan(), &out, Consistency::kStrong)
                  .ok());
  EXPECT_EQ(AsInt(out[0][0]), committed_);
  EXPECT_EQ(cluster_->proxy()->rw_fallbacks(), 0u);
  // Without a health monitor nobody evicts: the fleet still lists 2 nodes.
  EXPECT_EQ(cluster_->ro_nodes().size(), 2u);
}

TEST_F(ChaosClusterTest, WedgedRoIsEvictedQueriesRerouteAndReplacementRejoins) {
  FleetHealthOptions health;
  health.enabled = true;
  health.check_interval_us = 1'000;
  health.auto_replace = true;
  Build(1, health);
  ASSERT_EQ(cluster_->ro(0)->name(), "ro1");
  ASSERT_TRUE(cluster_->ro(0)->CatchUpNow().ok());

  // A client hammering the proxy throughout the failure, eviction, and
  // replacement: ZERO queries may fail — degraded routing (peer RO, then the
  // RW snapshot engine) is the contract, errors are not.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> query_errors{0};
  std::thread client([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<Row> out;
      Status s = cluster_->proxy()->ExecuteQuery(CountPlan(), &out);
      if (!s.ok() || out.empty()) query_errors.fetch_add(1);
      queries.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  {
    // ro1's storage goes bad: every replication read on that node fails.
    fault::ScopedFault storm("logstore.read",
                             MakePolicy(fault::Kind::kFail, "ro1"));
    Churn(50);
    // The monitor detects the wedge and evicts...
    ASSERT_TRUE(WaitUntil([&] { return cluster_->evictions() >= 1; }));
    // ...and boots a replacement that converges and is re-admitted. The
    // fault stays armed the whole time: the replacement (different scope
    // tag) must be unaffected — the in-process analogue of one bad disk.
    ASSERT_TRUE(WaitUntil([&] {
      return cluster_->replacements() >= 1 && cluster_->ro_nodes().size() == 1;
    }));
  }
  stop.store(true);
  client.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(query_errors.load(), 0u);
  // While the fleet was empty the proxy served reads from the RW.
  EXPECT_GT(cluster_->proxy()->rw_fallbacks(), 0u);

  RoNode* fresh = cluster_->ro(0);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->name(), "ro2");
  EXPECT_TRUE(fresh->healthy());
  EXPECT_TRUE(fresh->is_leader());  // leadership moved off the evicted node
  // The replacement serves fresh, correct data...
  ASSERT_TRUE(fresh->CatchUpNow().ok());
  std::vector<Row> out;
  ASSERT_TRUE(fresh->ExecuteColumn(CountPlan(), &out).ok());
  EXPECT_EQ(AsInt(out[0][0]), committed_);
  // ...and routing prefers it again (strong reads included).
  EXPECT_EQ(cluster_->proxy()->PickRo(), fresh);
  std::vector<Row> strong;
  ASSERT_TRUE(cluster_->proxy()
                  ->ExecuteQuery(CountPlan(), &strong, Consistency::kStrong)
                  .ok());
  EXPECT_EQ(AsInt(strong[0][0]), committed_);
}

// Soak: repeated rounds of concurrent commits with a batch fsync refused
// mid-round. The invariant after every round — before
// AND after the log reopens — is that both readers (the RW's snapshot engine
// and the RO's column engine, which consumes only the durable log prefix)
// show exactly the durable commit history: every commit whose record LSN the
// frozen watermark covers, nothing the trim erased. Inclusion is decided by
// recorded commit LSN, not client-observed status, and rounds continue after
// reopen so post-reopen appends land on the trimmed (reused) LSN range — the
// case where a leaked publication or replica cursor would surface as a
// phantom row.
TEST_F(ChaosClusterTest, FsyncRefusalSoakNoReaderObservesTrimmedCommits) {
  Build(1);
  auto* txns = cluster_->rw()->txn_manager();
  RoNode* ro = cluster_->ro(0);
  LogStore* log = cluster_->fs()->log("redo");

  // Logical model: pk -> v. Base load is {i, i} for i in [0, 200).
  std::map<int64_t, int64_t> model;
  for (int64_t i = 0; i < committed_; ++i) model[i] = i;

  struct Rec {
    int64_t pk;
    int64_t v;
    Lsn lsn;
  };
  auto verify = [&](const char* when) {
    SCOPED_TRACE(when);
    std::vector<Row> expected;
    for (const auto& [pk, v] : model) expected.push_back({pk, v});
    std::vector<Row> rw_rows;
    ReadView view = txns->OpenReadView();
    ASSERT_TRUE(txns->Scan(view, 1, [&](int64_t, const Row& r) {
      rw_rows.push_back(r);
      return true;
    }).ok());
    EXPECT_EQ(testing_util::Canonicalize(rw_rows),
              testing_util::Canonicalize(expected));
    ASSERT_TRUE(ro->CatchUpNow().ok());
    std::vector<Row> ro_rows;
    ASSERT_TRUE(ro->ExecuteColumn(LScan(1, {0, 1}), &ro_rows).ok());
    EXPECT_EQ(testing_util::Canonicalize(ro_rows),
              testing_util::Canonicalize(expected));
  };

  int64_t next_pk = 5000;
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(::testing::Message() << "round=" << round);
    std::mutex mu;
    std::vector<Rec> recs;
    std::atomic<int> client_failures{0};
    {
      // The 4th batch fsync of the round is refused; the poison latch then
      // fails every later commit in the round.
      fault::Policy p;
      p.kind = fault::Kind::kFail;
      p.hit_at = 4;
      p.max_fires = 1;
      fault::ScopedFault refuse("polarfs.fsync", p);
      std::vector<std::thread> workers;
      // Thread 0: fresh inserts. Thread 1: updates over a fixed base range —
      // a refused update must roll the row image back, not just hide it.
      workers.emplace_back([&] {
        for (int i = 0; i < 10; ++i) {
          Transaction txn;
          txns->Begin(&txn);
          const int64_t pk = next_pk + i;
          const int64_t v = round * 100 + i;
          if (!txns->Insert(&txn, 1, {pk, v}).ok()) {
            (void)txns->Rollback(&txn);
            continue;
          }
          if (!txns->Commit(&txn).ok()) client_failures.fetch_add(1);
          if (txn.commit_lsn() != 0) {
            std::lock_guard<std::mutex> g(mu);
            recs.push_back({pk, v, txn.commit_lsn()});
          }
        }
      });
      workers.emplace_back([&] {
        for (int i = 0; i < 10; ++i) {
          Transaction txn;
          txns->Begin(&txn);
          const int64_t pk = i % 5;
          const int64_t v = round * 1000 + i;
          if (!txns->Update(&txn, 1, pk, {pk, v}).ok()) {
            (void)txns->Rollback(&txn);
            continue;
          }
          if (!txns->Commit(&txn).ok()) client_failures.fetch_add(1);
          if (txn.commit_lsn() != 0) {
            std::lock_guard<std::mutex> g(mu);
            recs.push_back({pk, v, txn.commit_lsn()});
          }
        }
      });
      for (auto& w : workers) w.join();
    }
    next_pk += 10;

    // The refused batch froze the watermark; fold exactly the durable prefix
    // into the model, in LSN (== serialization) order.
    const Lsn durable = log->durable_lsn();
    std::sort(recs.begin(), recs.end(),
              [](const Rec& a, const Rec& b) { return a.lsn < b.lsn; });
    size_t lost = 0;
    for (const Rec& r : recs) {
      if (r.lsn > durable) {
        ++lost;
        continue;
      }
      model[r.pk] = r.v;
    }
    // The refused batch carried at least one enqueued-but-trimmed commit,
    // and its committers saw the failure.
    EXPECT_GE(lost, 1u);
    EXPECT_GE(static_cast<size_t>(client_failures.load()), lost);

    verify("post-refusal, store still poisoned");
    ASSERT_TRUE(cluster_->fs()->ReopenLogs().ok());
    verify("post-reopen");
  }
}

TEST_F(ChaosClusterTest, HungCoordinatorIsEvictedViaHeartbeat) {
  FleetHealthOptions health;
  health.enabled = true;
  health.check_interval_us = 2'000;
  health.heartbeat_timeout_us = 50'000;
  health.auto_replace = false;  // isolate the detection path
  Build(1, health);
  ASSERT_EQ(cluster_->ro(0)->name(), "ro1");
  // Not a failure the coordinator can see: every read stalls 300ms inside
  // the device. The pipeline never wedges — the heartbeat goes stale, which
  // the monitor must treat exactly like a dead node. The churn matters: the
  // poll loop only enters the device when there are durable records to
  // fetch, so an idle log would never touch the tar pit.
  fault::ScopedFault tarpit(
      "logstore.read", MakePolicy(fault::Kind::kLatency, "ro1", UINT64_MAX,
                                  /*latency_us=*/300'000));
  Churn(10);
  ASSERT_TRUE(WaitUntil([&] { return cluster_->evictions() >= 1; }));
  EXPECT_TRUE(cluster_->ro_nodes().empty());
  // Graceful degradation with an empty fleet: reads come from the RW.
  std::vector<Row> out;
  ASSERT_TRUE(cluster_->proxy()->ExecuteQuery(CountPlan(), &out).ok());
  EXPECT_EQ(AsInt(out[0][0]), committed_);
  EXPECT_GT(cluster_->proxy()->rw_fallbacks(), 0u);
}

}  // namespace
}  // namespace imci
