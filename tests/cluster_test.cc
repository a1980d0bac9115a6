#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <thread>

#include "common/clock.h"
#include "common/fault.h"
#include "tests/test_util.h"

namespace imci {
namespace {

std::shared_ptr<const Schema> SimpleSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  return std::make_shared<Schema>(1, "t1", cols, 0);
}

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.initial_ro_nodes = 2;
    opts.ro.imci.row_group_size = 256;
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(cluster_->CreateTable(SimpleSchema()).ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 1000; ++i) rows.push_back({i, i * 2});
    ASSERT_TRUE(cluster_->BulkLoad(1, std::move(rows)).ok());
    ASSERT_TRUE(cluster_->Open().ok());
  }
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ClusterTest, BulkLoadedDataVisibleOnAllRoNodes) {
  auto plan = LAgg(LScan(1, {0, 1}), {},
                   {AggSpec{AggKind::kCountStar, nullptr},
                    AggSpec{AggKind::kSum, Col(1, DataType::kInt64)}});
  for (RoNode* ro : cluster_->ro_nodes()) {
    std::vector<Row> out;
    ASSERT_TRUE(ro->ExecuteColumn(plan, &out).ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(AsInt(out[0][0]), 1000);
    EXPECT_DOUBLE_EQ(NumericValue(out[0][1]), 999.0 * 1000.0);
  }
}

TEST_F(ClusterTest, ProxyBalancesByActiveSessions) {
  RoNode* a = cluster_->ro(0);
  RoNode* b = cluster_->ro(1);
  a->EnterSession();
  a->EnterSession();
  EXPECT_EQ(cluster_->proxy()->PickRo(), b);
  b->EnterSession();
  b->EnterSession();
  b->EnterSession();
  EXPECT_EQ(cluster_->proxy()->PickRo(), a);
  a->LeaveSession();
  a->LeaveSession();
  b->LeaveSession();
  b->LeaveSession();
  b->LeaveSession();
}

TEST_F(ClusterTest, StrongConsistencyReadsYourWrites) {
  auto* txns = cluster_->rw()->txn_manager();
  for (int round = 0; round < 20; ++round) {
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(
        txns->Insert(&txn, 1, {int64_t(10000 + round), int64_t(1)}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
    // A strong read issued right after commit must observe it (§6.4).
    auto plan = LAgg(
        LScan(1, {0}, Ge(Col(0, DataType::kInt64), ConstInt(10000))), {},
        {AggSpec{AggKind::kCountStar, nullptr}});
    std::vector<Row> out;
    ASSERT_TRUE(cluster_->proxy()
                    ->ExecuteQuery(plan, &out, Consistency::kStrong)
                    .ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(AsInt(out[0][0]), round + 1);
  }
}

// A strong read's floor is the commit point the submitter could observe.
// An open transaction's eagerly shipped DML sits in the redo log above every
// acknowledged commit but never raises that point, so the read must neither
// wait on it nor see it — while the transaction is open, and after it rolls
// back with no later commit to move the log along.
TEST(StrongReadTest, OpenTransactionNeitherBlocksNorLeaksIntoStrongRead) {
  ClusterOptions opts;
  opts.initial_ro_nodes = 1;
  opts.ro.imci.row_group_size = 256;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.CreateTable(SimpleSchema()).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 1000; ++i) rows.push_back({i, i * 2});
  ASSERT_TRUE(cluster.BulkLoad(1, std::move(rows)).ok());
  ASSERT_TRUE(cluster.Open().ok());
  auto* txns = cluster.rw()->txn_manager();

  Transaction acked;
  txns->Begin(&acked);
  ASSERT_TRUE(txns->Insert(&acked, 1, {int64_t(10000), int64_t(1)}).ok());
  ASSERT_TRUE(txns->Commit(&acked).ok());

  Transaction open;
  txns->Begin(&open);
  ASSERT_TRUE(txns->Insert(&open, 1, {int64_t(10001), int64_t(1)}).ok());

  // Runs the strong count on a side thread with a deadline. On a miss, an
  // unrelated commit releases the stuck read so the test can fail cleanly.
  int64_t release_pk = 90000;
  auto strong_count = [&](int64_t* count) {
    auto plan = LAgg(
        LScan(1, {0}, Ge(Col(0, DataType::kInt64), ConstInt(10000))), {},
        {AggSpec{AggKind::kCountStar, nullptr}});
    std::vector<Row> out;
    Status s;
    auto done = std::async(std::launch::async, [&] {
      s = cluster.proxy()->ExecuteQuery(plan, &out, Consistency::kStrong);
    });
    if (done.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
      Transaction unblock;
      txns->Begin(&unblock);
      EXPECT_TRUE(
          txns->Insert(&unblock, 1, {release_pk++, int64_t(0)}).ok());
      EXPECT_TRUE(txns->Commit(&unblock).ok());
      done.wait();
      return false;
    }
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok() || out.size() != 1) return false;
    *count = AsInt(out[0][0]);
    return true;
  };

  int64_t count = -1;
  ASSERT_TRUE(strong_count(&count))
      << "strong read did not return while a transaction was open";
  EXPECT_EQ(count, 1);

  ASSERT_TRUE(txns->Rollback(&open).ok());
  ASSERT_TRUE(strong_count(&count))
      << "strong read did not return after the open transaction rolled back";
  EXPECT_EQ(count, 1);
}

TEST_F(ClusterTest, LeaderDesignationAndFailover) {
  EXPECT_TRUE(cluster_->ro(0)->is_leader());
  EXPECT_FALSE(cluster_->ro(1)->is_leader());
  ASSERT_TRUE(cluster_->RemoveRoNode(cluster_->ro(0)).ok());
  ASSERT_NE(cluster_->leader(), nullptr);
  EXPECT_TRUE(cluster_->ro(0)->is_leader());
}

// Admin scale-in leaves the fleet the way eviction does: the node is retired
// at once (no new session, leadership handed on), but it is destroyed only
// after the sessions already on it have left.
TEST_F(ClusterTest, ScaleInDrainsSessions) {
  RoNode* node = cluster_->ro(0);
  ASSERT_TRUE(node->is_leader());
  node->EnterSession();
  auto removal = std::async(std::launch::async,
                            [&] { return cluster_->RemoveRoNode(node); });
  EXPECT_EQ(removal.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "removal returned with a session still on the node";
  EXPECT_FALSE(node->healthy());
  RoNode* leader = cluster_->leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_NE(leader, node);
  node->LeaveSession();
  ASSERT_EQ(removal.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(removal.get().ok());
  EXPECT_EQ(cluster_->ro_nodes().size(), 1u);
}

// The fleet monitor samples node health while admin scale-out and scale-in
// change the fleet. RemoveRoNode frees a node as soon as it has drained, so
// the monitor must never read a node through a pointer copied out of the
// fleet before the removal (asan and tsan report it when it does).
TEST(FleetMonitorTest, MonitorRacesAdminScaling) {
  ClusterOptions opts;
  opts.initial_ro_nodes = 2;
  opts.ro.exec_threads = 1;
  opts.ro.replication.parse_parallelism = 1;
  opts.ro.replication.apply_parallelism = 1;
  // A short poll wait lets a removed node stop, and be freed, promptly.
  opts.ro.replication.poll_timeout_us = 20;
  opts.health.enabled = true;
  opts.health.check_interval_us = 10;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.CreateTable(SimpleSchema()).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({i, i});
  ASSERT_TRUE(cluster.BulkLoad(1, std::move(rows)).ok());
  ASSERT_TRUE(cluster.Open().ok());
  // Each added node stays for two more rounds, so the monitor samples it
  // many times before it leaves.
  std::deque<RoNode*> added;
  const int rounds = testing_util::TestIters(200);
  for (int i = 0; i < rounds; ++i) {
    RoNode* node = nullptr;
    ASSERT_TRUE(cluster.AddRoNode(&node).ok());
    added.push_back(node);
    if (added.size() > 2) {
      ASSERT_TRUE(cluster.RemoveRoNode(added.front()).ok());
      added.pop_front();
    }
  }
  for (RoNode* node : added) ASSERT_TRUE(cluster.RemoveRoNode(node).ok());
  EXPECT_EQ(cluster.evictions(), 0u);
  EXPECT_EQ(cluster.ro_nodes().size(), 2u);
}

TEST_F(ClusterTest, ScaleOutFromCheckpointAndCatchUp) {
  auto* txns = cluster_->rw()->txn_manager();
  // Apply some post-load churn.
  for (int i = 0; i < 200; ++i) {
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Insert(&txn, 1, {int64_t(5000 + i), int64_t(i)}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  for (RoNode* ro : cluster_->ro_nodes()) {
    ASSERT_TRUE(ro->CatchUpNow().ok());
  }
  // Leader takes a checkpoint.
  ASSERT_TRUE(cluster_->TriggerCheckpoint().ok());
  // Wait for the background coordinator to fulfil it.
  for (int i = 0; i < 100; ++i) {
    std::string cur;
    if (cluster_->fs()->ReadFile("imci_ckpt/CURRENT", &cur).ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // More churn after the checkpoint.
  for (int i = 0; i < 100; ++i) {
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Insert(&txn, 1, {int64_t(7000 + i), int64_t(i)}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  // Scale out: the new node boots from the checkpoint and catches up.
  RoNode* fresh = nullptr;
  ASSERT_TRUE(cluster_->AddRoNode(&fresh).ok());
  ASSERT_TRUE(fresh->CatchUpNow().ok());
  auto plan = LAgg(LScan(1, {0}), {},
                   {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> out;
  ASSERT_TRUE(fresh->ExecuteColumn(plan, &out).ok());
  EXPECT_EQ(AsInt(out[0][0]), 1300);
  // And it serves the same answer as an established node.
  std::vector<Row> ref;
  RoNode* old_node = cluster_->ro(0);
  ASSERT_TRUE(old_node->CatchUpNow().ok());
  ASSERT_TRUE(old_node->ExecuteColumn(plan, &ref).ok());
  EXPECT_EQ(AsInt(ref[0][0]), 1300);
}

TEST_F(ClusterTest, ScaleOutWithoutCheckpointRebuildsFromRowStore) {
  RoNode* fresh = nullptr;
  ASSERT_TRUE(cluster_->AddRoNode(&fresh).ok());
  ASSERT_TRUE(fresh->CatchUpNow().ok());
  auto plan = LAgg(LScan(1, {0}), {},
                   {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> out;
  ASSERT_TRUE(fresh->ExecuteColumn(plan, &out).ok());
  EXPECT_EQ(AsInt(out[0][0]), 1000);
}

TEST(LogRecycleTest, CheckpointTruncatesRedoSegmentsAndRoStillBootsAndCatchesUp) {
  ClusterOptions opts;
  opts.initial_ro_nodes = 1;
  opts.ro.imci.row_group_size = 256;
  opts.fs.log_segment_bytes = 4096;  // small segments: churn spans many
  Cluster cluster(opts);
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  ASSERT_TRUE(
      cluster.CreateTable(std::make_shared<Schema>(1, "t1", cols, 0)).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 200; ++i) rows.push_back({i, i});
  ASSERT_TRUE(cluster.BulkLoad(1, std::move(rows)).ok());
  ASSERT_TRUE(cluster.Open().ok());

  auto* txns = cluster.rw()->txn_manager();
  auto churn = [&](int64_t base, int n) {
    for (int i = 0; i < n; ++i) {
      Transaction txn;
      txns->Begin(&txn);
      ASSERT_TRUE(txns->Insert(&txn, 1, {base + i, int64_t(i)}).ok());
      ASSERT_TRUE(txns->Commit(&txn).ok());
    }
  };
  churn(5000, 400);
  RoNode* leader = cluster.leader();
  ASSERT_TRUE(leader->CatchUpNow().ok());
  const size_t segments_before =
      cluster.fs()->ListFiles("log/redo/seg_").size();
  ASSERT_GT(segments_before, 2u);

  // Leader checkpoints (quiesced), then the cluster recycles the log (§7).
  leader->StopReplication();
  ASSERT_TRUE(leader->pipeline()->TakeCheckpoint(1).ok());
  leader->StartReplication();
  Lsn recycled_upto = 0;
  ASSERT_TRUE(cluster.RecycleRedoLog(&recycled_upto).ok());
  EXPECT_GT(recycled_upto, 0u);
  const size_t segments_after =
      cluster.fs()->ListFiles("log/redo/seg_").size();
  EXPECT_LT(segments_after, segments_before);
  EXPECT_EQ(cluster.fs()->log("redo")->truncated_lsn(), recycled_upto);

  // Post-checkpoint churn, then scale-out: the new node must boot from the
  // checkpoint and catch up from its LSN over the recycled log.
  churn(9000, 150);
  RoNode* fresh = nullptr;
  ASSERT_TRUE(cluster.AddRoNode(&fresh).ok());
  ASSERT_TRUE(fresh->CatchUpNow().ok());
  auto plan =
      LAgg(LScan(1, {0}), {}, {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> out;
  ASSERT_TRUE(fresh->ExecuteColumn(plan, &out).ok());
  EXPECT_EQ(AsInt(out[0][0]), 200 + 400 + 150);
  EXPECT_EQ(
      static_cast<uint64_t>(AsInt(out[0][0])),
      cluster.rw()->engine()->GetTable(1)->row_count());
}

TEST(CheckpointBootTest, TailReplaySkipsTransactionsAlreadyFoldedIntoCheckpoint) {
  // A checkpoint taken while a transaction is in flight records a start_lsn
  // *before* that transaction's first record — i.e. before commits that ARE
  // folded into the checkpoint. A node booting from it re-reads those
  // commits and must skip them by VID, or it double-applies (regression
  // test: the skip filter used to be assigned after the pipeline had
  // already copied its options, so it never took effect).
  ClusterOptions opts;
  opts.initial_ro_nodes = 1;
  opts.ro.imci.row_group_size = 256;
  Cluster cluster(opts);
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  ASSERT_TRUE(
      cluster.CreateTable(std::make_shared<Schema>(1, "t1", cols, 0)).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({i, i});
  ASSERT_TRUE(cluster.BulkLoad(1, std::move(rows)).ok());
  ASSERT_TRUE(cluster.Open().ok());
  auto* txns = cluster.rw()->txn_manager();

  // A and C ship their DMLs (commit-ahead) but stay in flight...
  Transaction a, c;
  txns->Begin(&a);
  ASSERT_TRUE(txns->Insert(&a, 1, {int64_t(100), int64_t(1)}).ok());
  txns->Begin(&c);
  ASSERT_TRUE(txns->Insert(&c, 1, {int64_t(300), int64_t(3)}).ok());
  // ...while B commits behind them in the log.
  Transaction b;
  txns->Begin(&b);
  ASSERT_TRUE(txns->Insert(&b, 1, {int64_t(200), int64_t(2)}).ok());
  ASSERT_TRUE(txns->Commit(&b).ok());

  RoNode* leader = cluster.leader();
  leader->StopReplication();
  ASSERT_TRUE(leader->CatchUpNow().ok());
  // Checkpoint now: csn covers B; A and C travel as in-flight buffers.
  ASSERT_TRUE(leader->pipeline()->TakeCheckpoint(1).ok());
  // After the checkpoint, A commits and C aborts.
  ASSERT_TRUE(txns->Commit(&a).ok());
  ASSERT_TRUE(txns->Rollback(&c).ok());

  RoNode* fresh = nullptr;
  ASSERT_TRUE(cluster.AddRoNode(&fresh).ok());
  ASSERT_TRUE(fresh->CatchUpNow().ok());
  auto plan =
      LAgg(LScan(1, {0}), {}, {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> out;
  ASSERT_TRUE(fresh->ExecuteColumn(plan, &out).ok());
  // 10 bulk + A + B: B applied exactly once, A's restored buffer applied on
  // its commit, C's restored buffer discarded on its abort.
  EXPECT_EQ(AsInt(out[0][0]), 12);
  Row r;
  EXPECT_TRUE(fresh->imci()->GetIndex(1)
                  ->LookupByPk(100, fresh->applied_vid(), &r).ok());
  EXPECT_TRUE(fresh->imci()->GetIndex(1)
                  ->LookupByPk(300, fresh->applied_vid(), &r).IsNotFound());
}

// With replication running, CatchUpNow waits for the durable LSN of the
// call, not for a tail that a steady writer keeps moving.
TEST_F(ClusterTest, CatchUpNowReturnsUnderASteadyWriter) {
  auto* txns = cluster_->rw()->txn_manager();
  std::atomic<bool> stop{false};
  std::atomic<int64_t> commits{0};
  std::thread writer([&] {
    for (int64_t pk = 30000; !stop.load(); ++pk) {
      Transaction txn;
      txns->Begin(&txn);
      if (!txns->Insert(&txn, 1, {pk, int64_t(1)}).ok() ||
          !txns->Commit(&txn).ok()) {
        return;
      }
      commits.fetch_add(1);
    }
  });
  while (commits.load() < 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RoNode* ro = cluster_->ro(0);
  const Lsn target = ro->pipeline()->source_durable_lsn();
  auto done = std::async(std::launch::async, [&] { return ro->CatchUpNow(); });
  const bool returned =
      done.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  stop = true;
  writer.join();
  ASSERT_TRUE(returned) << "CatchUpNow kept waiting under a steady writer";
  EXPECT_TRUE(done.get().ok());
  EXPECT_GE(ro->pipeline()->read_lsn(), target);
}

// Strong-read waiters sleep on the pipeline's progress notification, so
// losing the node must wake them: a waiter on a VID the node never reaches
// returns Busy within 1 s of Retire(), and within 1 s of a wedge injected
// through a fault point, not at its 10 s deadline.
TEST_F(ClusterTest, UnreachableVidWaiterWakesOnRetireAndWedge) {
  auto wait_through = [](RoNode* ro, const std::function<void()>& lose) {
    Status status;
    std::thread waiter([&] {
      status = ro->WaitApplied(ro->applied_vid() + 1'000'000, 10'000'000);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    lose();
    Timer since_lost;
    waiter.join();
    EXPECT_TRUE(status.IsBusy()) << status.ToString();
    EXPECT_LT(since_lost.ElapsedMicros(), 1'000'000u) << ro->name();
  };
  RoNode* retiring = cluster_->ro(0);
  wait_through(retiring, [&] { retiring->Retire(); });

  RoNode* wedging = cluster_->ro(1);
  fault::Policy fail;
  fail.kind = fault::Kind::kFail;
  fail.scope = wedging->name();
  fault::ScopedFault storm("logstore.read", fail);
  wait_through(wedging, [&] {
    auto* txns = cluster_->rw()->txn_manager();
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Insert(&txn, 1, {int64_t(40000), int64_t(1)}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
    while (!wedging->pipeline()->wedged()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

TEST_F(ClusterTest, VisibilityDelayIsMeasured) {
  auto* txns = cluster_->rw()->txn_manager();
  for (int i = 0; i < 50; ++i) {
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Insert(&txn, 1, {int64_t(20000 + i), int64_t(i)}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  RoNode* ro = cluster_->ro(0);
  ASSERT_TRUE(ro->CatchUpNow().ok());
  EXPECT_GT(ro->pipeline()->vd_histogram()->Count(), 0u);
  // Visibility delay at this scale should be well under a second.
  EXPECT_LT(ro->pipeline()->vd_histogram()->Percentile(0.99), 1'000'000u);
}

// With the binlog on, the RW writes a logical event per commit; a rolled-back
// transaction writes none, and the RO (fed by REDO) never sees its row.
TEST(LogicalApplyTest, AbortedTransactionsNeverReachTheBinlog) {
  ClusterOptions opts;
  opts.initial_ro_nodes = 1;
  opts.ro.imci.row_group_size = 256;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.CreateTable(SimpleSchema()).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({i, i * 2});
  ASSERT_TRUE(cluster.BulkLoad(1, std::move(rows)).ok());
  ASSERT_TRUE(cluster.Open().ok());
  auto* txns = cluster.rw()->txn_manager();
  txns->set_binlog_enabled(true);
  Transaction txn;
  txns->Begin(&txn);
  ASSERT_TRUE(txns->Insert(&txn, 1, {int64_t(2000), int64_t(1)}).ok());
  ASSERT_TRUE(txns->Rollback(&txn).ok());
  EXPECT_EQ(cluster.rw()->binlog()->txns_written(), 0u);
  EXPECT_EQ(cluster.rw()->binlog()->bytes_written(), 0u);
  RoNode* ro = cluster.ro(0);
  ASSERT_TRUE(ro->CatchUpNow().ok());
  EXPECT_EQ(ro->pipeline()->committed_txns(), 0u);
  auto plan =
      LAgg(LScan(1, {0}), {}, {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> out;
  ASSERT_TRUE(ro->ExecuteColumn(plan, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(AsInt(out[0][0]), 100);  // only the bulk-loaded base
}

}  // namespace
}  // namespace imci
