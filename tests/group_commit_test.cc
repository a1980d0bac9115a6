// Leader-based group commit (LogStore::SyncTo): durability cost
// must scale with *batch* count, not client count, while preserving the
// invariant Phase#2 replay relies on — commit-VID order equals commit-record
// LSN order. The multi-threaded cases double as the tsan stress surface for
// the rewritten TransactionManager::Commit (short critical section, fsync
// wait outside commit_mu_).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "common/fault.h"
#include "log/log_store.h"
#include "redo/redo_record.h"
#include "tests/test_util.h"

namespace imci {
namespace {

// --- Group-commit semantics (deterministic, single-threaded) --------------

/// batches/commits: 1.0 single-threaded, < 1 whenever batching happens.
double FsyncsPerCommit(const LogStore& log) {
  return log.commits() == 0
             ? 0.0
             : static_cast<double>(log.batches()) / log.commits();
}

/// commits/batches: how many commits the average fsync covered.
double MeanBatchSize(const LogStore& log) {
  return log.batches() == 0
             ? 0.0
             : static_cast<double>(log.commits()) / log.batches();
}

TEST(GroupCommitterTest, OneFsyncCoversEveryRecordAppendedBeforeIt) {
  PolarFs fs;
  LogStore* log = fs.log("redo");
  Lsn last = 0;
  for (int i = 0; i < 10; ++i) {
    last = log->Append({"r" + std::to_string(i)}, /*durable=*/false);
  }
  EXPECT_EQ(fs.fsync_count(), 0u);
  EXPECT_EQ(log->durable_lsn(), 0u);

  // The leader's batch target is the written tail, so one fsync covers all
  // ten records — not just the one the caller waited on.
  (void)log->SyncTo(5);
  EXPECT_EQ(fs.fsync_count(), 1u);
  EXPECT_EQ(log->durable_lsn(), last);

  // Already covered: the fast path returns without another fsync.
  (void)log->SyncTo(last);
  EXPECT_EQ(fs.fsync_count(), 1u);
  EXPECT_EQ(log->batches(), 1u);
  EXPECT_EQ(log->commits(), 2u);
  EXPECT_DOUBLE_EQ(MeanBatchSize(*log), 2.0);
}

TEST(GroupCommitterTest, SingleThreadedDurableAppendsPayOneFsyncEach) {
  PolarFs fs;
  LogStore* log = fs.log("redo");
  for (int i = 0; i < 5; ++i) {
    log->Append({"x"}, /*durable=*/true);
  }
  // No concurrency, no batching: exactly the pre-group-commit cost.
  EXPECT_EQ(fs.fsync_count(), 5u);
  EXPECT_DOUBLE_EQ(FsyncsPerCommit(*log), 1.0);
  EXPECT_EQ(log->durable_lsn(), log->written_lsn());
}

TEST(GroupCommitterTest, RecoveryMarksTheRecoveredTailDurable) {
  PolarFs fs;
  LogStore* log = fs.log("redo");
  const Lsn last = log->Append({"a", "b"}, /*durable=*/true);
  (void)fs.ReopenLogs();
  // Everything recovery re-read from segment files is durable: waiting on
  // the recovered tail must not flush again.
  EXPECT_EQ(log->durable_lsn(), last);
  const uint64_t before = fs.fsync_count();
  (void)log->SyncTo(last);
  EXPECT_EQ(fs.fsync_count(), before);
}

TEST(GroupCommitterTest, PolarFsAggregatesBatchStatsAcrossLogs) {
  PolarFs fs;
  fs.log("redo")->Append({"r"}, /*durable=*/true);
  fs.log("binlog")->Append({"b"}, /*durable=*/true);
  EXPECT_EQ(fs.commit_batches(), 2u);
  EXPECT_EQ(fs.batched_commits(), 2u);
}

// --- One poison latch: a poison landing during a leader's fsync ------------
// The fsync latency holds the batch leader inside its fsync while another
// appender's write-through fails and poisons the log, trimming the tail the
// leader's batch was covering.

/// Arms `polarfs.append_file` to fail every write-through until destroyed.
fault::ScopedFault FailWriteThrough() {
  fault::Policy p;
  p.kind = fault::Kind::kFail;
  return fault::ScopedFault("polarfs.append_file", p);
}

/// Blocks until `fs` has issued `n` fsyncs: a leader that bumped the count
/// is inside its (latency-held) fsync.
void WaitForFsyncs(const PolarFs& fs, uint64_t n) {
  while (fs.fsync_count() < n) std::this_thread::yield();
}

TEST(GroupCommitterTest, PoisonDuringLeaderFsyncFailsTheLeader) {
  PolarFs::Options fopts;
  fopts.fsync_latency_us = 300'000;
  PolarFs fs(fopts);
  LogStore* log = fs.log("redo");
  const Lsn lsn = log->Append({"acked?"}, /*durable=*/false);
  auto leader = std::async(std::launch::async, [&] { return log->SyncTo(lsn); });
  WaitForFsyncs(fs, 1);
  {
    auto fail = FailWriteThrough();
    Status error;
    EXPECT_EQ(log->Append({"refused"}, /*durable=*/false, &error), 0u);
    EXPECT_TRUE(log->poisoned());
  }
  // The poison trimmed the leader's record before its fsync returned, so
  // the leader must not report it durable, nor advance the watermark past
  // the written tail.
  const Status s = leader.get();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_LE(log->durable_lsn(), log->written_lsn());
  ASSERT_TRUE(fs.ReopenLogs().ok());
  EXPECT_EQ(log->written_lsn(), 0u);
}

TEST(GroupCommitterTest, FollowerParkedBehindPoisonedBatchReturns) {
  PolarFs::Options fopts;
  fopts.fsync_latency_us = 300'000;
  // Shared with the follower thread, which a regression leaves spinning.
  auto fs = std::make_shared<PolarFs>(fopts);
  LogStore* log = fs->log("redo");
  const Lsn first = log->Append({"a"}, /*durable=*/false);
  auto leader =
      std::async(std::launch::async, [&] { return log->SyncTo(first); });
  WaitForFsyncs(*fs, 1);
  // Appended after the leader's snapshot: the follower needs a later batch.
  const Lsn second = log->Append({"b"}, /*durable=*/false);
  std::promise<Status> done;
  std::future<Status> follower_status = done.get_future();
  std::thread follower([fs, log, second, p = std::move(done)]() mutable {
    p.set_value(log->SyncTo(second));
  });
  // The follower counts its commit on entry and parks on the leader's
  // condition variable right after; parking itself is not observable, so
  // give it a moment (the latch is checked on entry too, so a late follower
  // must fail the same way).
  while (log->commits() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    auto fail = FailWriteThrough();
    Status error;
    EXPECT_EQ(log->Append({"refused"}, /*durable=*/false, &error), 0u);
  }
  (void)leader.get();
  const bool returned = follower_status.wait_for(std::chrono::seconds(2)) ==
                        std::future_status::ready;
  if (returned) {
    follower.join();
  } else {
    follower.detach();  // stuck re-leading fsyncs over a trimmed tail
  }
  ASSERT_TRUE(returned) << "follower still waiting 2 s after the poison";
  EXPECT_TRUE(follower_status.get().IsIOError());
  EXPECT_LE(log->durable_lsn(), log->written_lsn());
}

// --- Concurrent batching on the real commit path ---------------------------

std::shared_ptr<const Schema> StressSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  return std::make_shared<Schema>(1, "t", cols, 0);
}

/// A bare RW commit path: engine + redo + binlog + transaction manager over
/// one PolarFs, no cluster.
struct CommitRig {
  explicit CommitRig(PolarFs::Options fopts = {}, bool binlog_on = false)
      : fs(fopts), engine(&fs, &catalog), redo(fs.log("redo")),
        binlog(fs.log("binlog")), txns(&engine, &redo, &locks, &binlog) {
    EXPECT_TRUE(engine.CreateTable(StressSchema()).ok());
    txns.set_binlog_enabled(binlog_on);
  }
  PolarFs fs;
  Catalog catalog;
  RowStoreEngine engine;
  RedoWriter redo;
  LockManager locks;
  BinlogWriter binlog;
  TransactionManager txns;
};

void CommitLoop(CommitRig* rig, int thread_id, int n) {
  for (int i = 0; i < n; ++i) {
    Transaction txn;
    rig->txns.Begin(&txn);
    const int64_t pk = static_cast<int64_t>(thread_id) * 1'000'000 + i;
    ASSERT_TRUE(rig->txns.Insert(&txn, 1, {pk, int64_t(i)}).ok());
    ASSERT_TRUE(rig->txns.Commit(&txn).ok());
  }
}

TEST(GroupCommitTest, SingleThreadedCommitIsOneFsyncPerCommit) {
  CommitRig rig;
  const uint64_t before = rig.fs.fsync_count();
  CommitLoop(&rig, 0, 16);
  EXPECT_EQ(rig.fs.fsync_count() - before, 16u);
  EXPECT_DOUBLE_EQ(FsyncsPerCommit(*rig.fs.log("redo")), 1.0);
}

TEST(GroupCommitTest, ConcurrentCommitsShareBatchFsyncs) {
  // The simulated fsync latency keeps each flush in flight long enough for
  // other committers to enqueue behind the leader (on any scheduler: the
  // latency wait yields the CPU).
  PolarFs::Options fopts;
  fopts.fsync_latency_us = 200;
  CommitRig rig(fopts);
  const int kThreads = 4;
  const int kPerThread = testing_util::TestIters(50);
  const uint64_t fsyncs_before = rig.fs.fsync_count();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back(CommitLoop, &rig, t, kPerThread);
  }
  for (auto& w : workers) w.join();
  const uint64_t commits = rig.txns.commits();
  const uint64_t fsyncs = rig.fs.fsync_count() - fsyncs_before;
  ASSERT_EQ(commits, static_cast<uint64_t>(kThreads) * kPerThread);
  // The headline property: at concurrency >= 4 the durable path batches, so
  // fsyncs-per-commit drops below one.
  EXPECT_LT(fsyncs, commits);
  EXPECT_LT(FsyncsPerCommit(*rig.fs.log("redo")), 1.0);
  EXPECT_GT(MeanBatchSize(*rig.fs.log("redo")), 1.0);
  // Every commit record is actually durable.
  EXPECT_GE(rig.fs.log("redo")->durable_lsn(), rig.redo.written_lsn());
}

/// Reads every commit record of the shared redo log in LSN order and returns
/// their commit VIDs.
std::vector<Vid> CommitVidsInLsnOrder(PolarFs* fs) {
  RedoReader reader(fs->log("redo"));
  std::vector<RedoRecord> records;
  reader.Read(0, fs->log("redo")->written_lsn(), &records);
  std::vector<Vid> vids;
  for (const RedoRecord& r : records) {
    if (r.type == RedoType::kCommit) vids.push_back(r.commit_vid);
  }
  return vids;
}

TEST(GroupCommitTest, CommitVidOrderEqualsCommitRecordLsnOrder) {
  // The tsan stress for the rewritten commit path: many threads race
  // through the short commit_mu_ section while fsync waits overlap; the
  // replayable log must still show commit VIDs in exactly LSN order (the
  // §5.4 Phase#2 prerequisite), with the binlog arm enabled so both logs'
  // enqueue disciplines are exercised at once.
  PolarFs::Options fopts;
  fopts.fsync_latency_us = 50;
  CommitRig rig(fopts, /*binlog_on=*/true);
  const int kThreads = 8;
  const int kPerThread = testing_util::TestIters(40);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back(CommitLoop, &rig, t, kPerThread);
  }
  for (auto& w : workers) w.join();
  const uint64_t total = static_cast<uint64_t>(kThreads) * kPerThread;

  const std::vector<Vid> vids = CommitVidsInLsnOrder(&rig.fs);
  ASSERT_EQ(vids.size(), total);
  for (size_t i = 0; i < vids.size(); ++i) {
    // Dense and strictly increasing: VID i+1 committed at the (i+1)-th
    // commit-record LSN. Any violation means a replica replaying in LSN
    // order would apply commits out of VID order.
    ASSERT_EQ(vids[i], static_cast<Vid>(i + 1))
        << "commit VID out of LSN order at commit record " << i;
  }

  // The binlog (one record per committed txn, LSN order) must agree.
  std::vector<Vid> binlog_vids;
  const size_t replayed = BinlogWriter::Replay(
      rig.fs.log("binlog"),
      [&](Tid, Vid vid, const std::vector<BinlogWriter::Event>&) {
        binlog_vids.push_back(vid);
      });
  ASSERT_EQ(replayed, total);
  EXPECT_EQ(binlog_vids, vids);

  // Both logs' tails are durable: no commit returned before its fsync.
  EXPECT_GE(rig.fs.log("redo")->durable_lsn(),
            rig.fs.log("redo")->written_lsn());
  EXPECT_GE(rig.fs.log("binlog")->durable_lsn(),
            rig.fs.log("binlog")->written_lsn());
}

}  // namespace
}  // namespace imci
