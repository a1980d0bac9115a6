// Crash-recovery property test: run a random concurrent workload on the RW
// node, sample the group-commit durable watermark mid-run (the "crash
// point"), then simulate a SIGKILL-style loss of everything volatile — only
// the base pages/files and the redo records at or below the watermark
// survive into a fresh shared store. A recovery node boots from that state,
// replays the log, and must equal exactly the durable-watermark prefix of
// the commit history (commit-VID order == commit-LSN order, so the LSN cut
// is a VID prefix).
//
// Both engines are asserted against the durable-prefix model: the
// commit-gated column index directly (Phase#2 only surfaces transactions
// whose commit record made it into the durable prefix), and the row
// *replica* after the ARIES-style undo pass (RecoverRowReplica) — Phase#1
// physical replay is commit-agnostic, so the raw pages contain effects of
// transactions still in flight at the cut until the undo pass rolls them
// back to the newest committed images their version chains recorded.
//
// Seeded via the standard IMCI_TEST_SEED / IMCI_TEST_ITERS hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "log/log_store.h"
#include "tests/test_util.h"

namespace imci {
namespace {

std::shared_ptr<const Schema> KvSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  cols.push_back({"payload", DataType::kString, true, true});
  return std::make_shared<Schema>(1, "kv", cols, 0);
}

/// The logical effect of one committed transaction, keyed by commit VID.
struct TxnEffect {
  struct Op {
    enum class Kind : uint8_t { kPut, kErase } kind;
    int64_t pk = 0;
    int64_t v = 0;
    std::string payload;
  };
  Vid vid = 0;
  Lsn commit_lsn = 0;
  std::vector<Op> ops;
};

class CrashRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashRecoveryTest, RecoveredStateEqualsDurableWatermarkPrefix) {
  const uint64_t seed = testing_util::TestSeed(1000 + GetParam());
  const int txns_per_thread = testing_util::TestIters(250);
  SCOPED_TRACE(::testing::Message() << "IMCI_TEST_SEED=" << seed
                                    << " IMCI_TEST_ITERS=" << txns_per_thread
                                    << " reproduces this run");

  PolarFs fs;
  Catalog catalog;
  RwNode rw(&fs, &catalog);
  ASSERT_TRUE(rw.CreateTable(KvSchema()).ok());
  std::vector<Row> base;
  for (int64_t pk = 0; pk < 200; pk += 2) {
    base.push_back({pk, int64_t(0), std::string("base")});
  }
  ASSERT_TRUE(rw.BulkLoad(1, base).ok());
  ASSERT_TRUE(rw.FinishLoad().ok());

  // Random mixed workload: 4 writer threads, 1-3 ops per transaction, 10%
  // voluntary rollbacks, lock-timeout aborts tolerated.
  auto* txns = rw.txn_manager();
  std::mutex commits_mu;
  std::vector<TxnEffect> commits;
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(seed + t);
      for (int i = 0; i < txns_per_thread; ++i) {
        Transaction txn;
        txns->Begin(&txn);
        TxnEffect eff;
        bool aborted = false;
        const int ops = 1 + static_cast<int>(rng.Next() % 3);
        for (int o = 0; o < ops; ++o) {
          const int64_t pk = static_cast<int64_t>(rng.Next() % 240);
          const int64_t v = static_cast<int64_t>(rng.Next() % 100000);
          std::string payload = rng.RandomString(0, 40);
          const uint64_t action = rng.Next() % 3;
          Status s;
          if (action == 0) {
            s = txns->Insert(&txn, 1, {pk, v, payload});
            if (s.ok()) {
              eff.ops.push_back({TxnEffect::Op::Kind::kPut, pk, v, payload});
            }
          } else if (action == 1) {
            s = txns->Update(&txn, 1, pk, {pk, v, payload});
            if (s.ok()) {
              eff.ops.push_back({TxnEffect::Op::Kind::kPut, pk, v, payload});
            }
          } else {
            s = txns->Delete(&txn, 1, pk);
            if (s.ok()) {
              eff.ops.push_back({TxnEffect::Op::Kind::kErase, pk, 0, {}});
            }
          }
          if (s.IsBusy()) {  // lock-wait timeout: abort and retry later
            aborted = true;
            break;
          }
          // Duplicate inserts / missing keys are harmless no-op statuses.
        }
        if (aborted || rng.Next() % 10 == 0) {
          (void)txns->Rollback(&txn);
          continue;
        }
        if (!txns->Commit(&txn).ok()) continue;
        eff.vid = txn.commit_vid();
        eff.commit_lsn = txn.commit_lsn();
        std::lock_guard<std::mutex> g(commits_mu);
        commits.push_back(std::move(eff));
      }
    });
  }

  // Sample the crash point mid-run — the durable watermark right after some
  // group-commit batch, while transactions are still in flight: wait for a
  // fraction of the workload to commit, then cut.
  const uint64_t sample_at =
      std::max<uint64_t>(1, static_cast<uint64_t>(txns_per_thread) / 2);
  while (txns->commits() < sample_at) std::this_thread::yield();
  // Deterministic straddler: a transaction whose DML records are durable
  // *below* the cut but whose commit record lands beyond it. Phase#1 replay
  // on the recovery node applies its page effects commit-agnostically; only
  // the ARIES undo pass can roll them back. (The random workload can also
  // produce straddlers, but not reliably on every seed.) pk 300 is outside
  // the workload's key range, so no lock interference.
  Transaction straddler;
  txns->Begin(&straddler);
  ASSERT_TRUE(
      txns->Insert(&straddler, 1, {int64_t(300), int64_t(1), std::string("straddle")})
          .ok());
  // A filler commit forces a group-commit fsync that covers the straddler's
  // insert record, pulling it under the durable watermark we cut at.
  Transaction filler;
  txns->Begin(&filler);
  ASSERT_TRUE(
      txns->Insert(&filler, 1, {int64_t(301), int64_t(2), std::string("filler")}).ok());
  ASSERT_TRUE(txns->Commit(&filler).ok());
  {
    TxnEffect eff;
    eff.vid = filler.commit_vid();
    eff.commit_lsn = filler.commit_lsn();
    eff.ops.push_back(
        {TxnEffect::Op::Kind::kPut, 301, 2, std::string("filler")});
    std::lock_guard<std::mutex> g(commits_mu);
    commits.push_back(std::move(eff));
  }
  const Lsn cut = fs.log("redo")->durable_lsn();
  ASSERT_GE(cut, filler.commit_lsn());
  for (auto& w : workers) w.join();
  // Committed only now — beyond the cut: the crash erases this commit, so
  // recovery must not expose pk 300.
  ASSERT_TRUE(txns->Commit(&straddler).ok());
  ASSERT_GT(straddler.commit_lsn(), cut);
  const Lsn final_written = fs.log("redo")->written_lsn();

  // SIGKILL simulation: everything volatile is gone; a fresh shared store
  // receives the base pages, the non-log files (registry, base LSN) and
  // exactly the redo records at or below the durable watermark.
  PolarFs fs2;
  for (PageId id : fs.ListPages()) {
    Blob image;
    ASSERT_TRUE(fs.ReadPage(id, &image).ok());
    ASSERT_TRUE(fs2.WritePage(id, std::move(image)).ok());
  }
  for (const std::string& name : fs.ListFiles("")) {
    if (name.rfind("log/", 0) == 0) continue;  // logs rebuilt from the cut
    std::string data;
    ASSERT_TRUE(fs.ReadFile(name, &data).ok());
    ASSERT_TRUE(fs2.WriteFile(name, std::move(data)).ok());
  }
  std::vector<std::string> prefix;
  fs.log("redo")->Read(0, cut, &prefix);
  ASSERT_EQ(prefix.size(), cut);
  if (!prefix.empty()) {
    // Durable: these records survived the crash by definition (they were at
    // or below the fsync watermark), and the replication pipeline consumes
    // only the durable prefix of its source log.
    fs2.log("redo")->Append(std::move(prefix), /*durable=*/true);
  }
  ASSERT_EQ(fs2.log("redo")->written_lsn(), cut);

  // Reopen: boot a recovery node from the durable state and replay.
  Catalog catalog2;
  catalog2.Register(KvSchema());
  RoNodeOptions ro_opts;
  RoNode node("recovered", &fs2, &catalog2, ro_opts);
  ASSERT_TRUE(node.Boot().ok());
  ASSERT_TRUE(node.CatchUpNow().ok());

  // Expected state: the bulk load plus every committed transaction whose
  // commit record is inside the durable prefix, applied in commit-VID
  // order (2PL serializes conflicting transactions, and VID order is their
  // commit order).
  std::sort(commits.begin(), commits.end(),
            [](const TxnEffect& a, const TxnEffect& b) { return a.vid < b.vid; });
  std::map<int64_t, std::pair<int64_t, std::string>> model;
  for (const Row& r : base) {
    model[AsInt(r[0])] = {AsInt(r[1]), AsString(r[2])};
  }
  Vid last_vid = 0;
  size_t included = 0;
  for (const TxnEffect& eff : commits) {
    if (eff.commit_lsn > cut) continue;  // lost with the crash
    last_vid = std::max(last_vid, eff.vid);
    ++included;
    for (const TxnEffect::Op& op : eff.ops) {
      if (op.kind == TxnEffect::Op::Kind::kPut) {
        model[op.pk] = {op.v, op.payload};
      } else {
        model.erase(op.pk);
      }
    }
  }
  SCOPED_TRACE(::testing::Message()
               << "cut=" << cut << " committed=" << commits.size()
               << " included=" << included);
  // The cut must be a real crash: some history recovered, some lost. The
  // straddler is the *guaranteed* loss (its commit record is beyond the cut
  // by construction and its effect is deliberately absent from the model);
  // recorded worker commits may or may not land beyond the cut depending on
  // scheduling, so no expectation is placed on them.
  if (cut > 0) {
    EXPECT_GT(included, 0u);
  }
  EXPECT_GT(final_written, cut);

  EXPECT_EQ(node.applied_vid(), last_vid);

  std::vector<Row> expected;
  for (const auto& [pk, vp] : model) {
    expected.push_back({pk, vp.first, vp.second});
  }
  std::vector<Row> got;
  ASSERT_TRUE(node.ExecuteColumn(LScan(1, {0, 1, 2}), &got).ok());
  EXPECT_EQ(testing_util::Canonicalize(got),
            testing_util::Canonicalize(expected));

  // --- Row-replica arm (ARIES undo at boot) ------------------------------
  // Before the undo pass the raw replica pages may contain page effects of
  // transactions whose commit record lies beyond the cut (their versions
  // are still unstamped). The undo pass rolls every such row back to the
  // newest committed image its version chain recorded; afterwards the raw
  // tree, the snapshot-consistent row engine, and the row-count metadata
  // must all equal the same durable-prefix model. Disabling the undo pass
  // leaves the in-flight effects in the pages and fails the raw-state
  // assertion below.
  const size_t undone = node.RecoverRowReplica();
  SCOPED_TRACE(::testing::Message() << "undone=" << undone);
  EXPECT_GE(undone, 1u);  // at least the deterministic straddler
  RowTable* replica = node.engine()->GetTable(1);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(testing_util::Canonicalize(
                testing_util::TreeImages(*replica, expected)),
            testing_util::Canonicalize(expected));
  EXPECT_EQ(replica->row_count(), expected.size());
  std::vector<Row> row_got;
  ASSERT_TRUE(node.ExecuteRow(LScan(1, {0, 1, 2}), &row_got).ok());
  EXPECT_EQ(testing_util::Canonicalize(row_got),
            testing_util::Canonicalize(expected));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryTest,
                         ::testing::Values(1, 2, 3));

// --- Targeted kill at each instrumented I/O seam ---------------------------
// The property above samples the crash point with a healthy process; here the
// death is injected *inside* a specific storage seam via fault::Kind::kCrash —
// the Nth traversal of the seam latches the crash flag and every instrumented
// I/O fails from that instant, exactly like the process dying mid-call. The
// durable watermark freezes wherever group commit had gotten; reboot into a
// fresh store carrying that prefix must reproduce it exactly, for every seam
// on the commit path. Inclusion in the model is decided by the commit
// record's LSN against the frozen watermark, NOT by the client-observed
// Commit() status: a commit whose record was already durable can still see
// its SyncTo fail once the crash latches, and the client's error does not
// un-happen the durable commit.
class FaultPointCrashTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { fault::Registry::Instance().Reset(); }
};

TEST_P(FaultPointCrashTest, RebootAfterSeamCrashRecoversDurablePrefix) {
  const std::string seam = GetParam();
  const uint64_t seed = testing_util::TestSeed(2000);
  const int txns_per_thread = testing_util::TestIters(150);
  SCOPED_TRACE(::testing::Message() << "seam=" << seam
                                    << " IMCI_TEST_SEED=" << seed);

  PolarFs fs;
  Catalog catalog;
  RwNode rw(&fs, &catalog);
  ASSERT_TRUE(rw.CreateTable(KvSchema()).ok());
  std::vector<Row> base;
  for (int64_t pk = 0; pk < 100; pk += 2) {
    base.push_back({pk, int64_t(0), std::string("base")});
  }
  ASSERT_TRUE(rw.BulkLoad(1, base).ok());
  ASSERT_TRUE(rw.FinishLoad().ok());

  struct Committed {
    Vid vid;
    Lsn lsn;
    int64_t pk;
    int64_t v;
    std::string payload;
  };
  std::mutex mu;
  std::vector<Committed> recorded;
  std::atomic<uint64_t> failed_commits{0};
  auto* txns = rw.txn_manager();
  {
    fault::Registry::Instance().Reseed(seed);
    fault::Policy death;
    death.kind = fault::Kind::kCrash;
    death.hit_at = 30;  // deterministic: dies on the 30th traversal
    fault::ScopedFault guard(seam, death);

    // Insert-only workload on disjoint per-thread key ranges: every commit's
    // logical effect is independent, so the model needs no cross-thread
    // ordering — only the LSN cut.
    constexpr int kThreads = 2;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        Rng rng(seed + t);
        int post_crash_attempts = 0;
        for (int i = 0; i < txns_per_thread; ++i) {
          Transaction txn;
          txns->Begin(&txn);
          const int64_t pk = 1000 + t * 1000 + i;
          const int64_t v = static_cast<int64_t>(rng.Next() % 100000);
          std::string payload = rng.RandomString(0, 24);
          if (!txns->Insert(&txn, 1, {pk, v, payload}).ok()) {
            (void)txns->Rollback(&txn);
          } else {
            if (!txns->Commit(&txn).ok()) {
              failed_commits.fetch_add(1);
            }
            if (txn.commit_lsn() != 0) {
              std::lock_guard<std::mutex> g(mu);
              recorded.push_back(
                  {txn.commit_vid(), txn.commit_lsn(), pk, v, payload});
            }
          }
          // The dead "process" can't make progress: a few post-crash
          // attempts prove commits now fail, then stop burning time.
          if (fault::Registry::Instance().crashed() &&
              ++post_crash_attempts > 3) {
            break;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    // The seam must actually have killed the process mid-run, with commits
    // refused afterwards.
    ASSERT_TRUE(fault::Registry::Instance().crashed());
    EXPECT_GT(failed_commits.load(), 0u);
  }  // "reboot": the crash latch clears with the scope

  // The watermark froze when the crash latched (the poisoned log refuses
  // fsync); everything at or below it survives into the fresh store.
  const Lsn cut = fs.log("redo")->durable_lsn();
  PolarFs fs2;
  for (PageId id : fs.ListPages()) {
    Blob image;
    ASSERT_TRUE(fs.ReadPage(id, &image).ok());
    ASSERT_TRUE(fs2.WritePage(id, std::move(image)).ok());
  }
  for (const std::string& name : fs.ListFiles("")) {
    if (name.rfind("log/", 0) == 0) continue;
    std::string data;
    ASSERT_TRUE(fs.ReadFile(name, &data).ok());
    ASSERT_TRUE(fs2.WriteFile(name, std::move(data)).ok());
  }
  std::vector<std::string> prefix;
  fs.log("redo")->Read(0, cut, &prefix);
  ASSERT_EQ(prefix.size(), cut);
  if (!prefix.empty()) {
    fs2.log("redo")->Append(std::move(prefix), /*durable=*/true);
  }

  Catalog catalog2;
  catalog2.Register(KvSchema());
  RoNodeOptions ro_opts;
  RoNode node("rebooted", &fs2, &catalog2, ro_opts);
  ASSERT_TRUE(node.Boot().ok());
  ASSERT_TRUE(node.CatchUpNow().ok());

  std::map<int64_t, std::pair<int64_t, std::string>> model;
  for (const Row& r : base) {
    model[AsInt(r[0])] = {AsInt(r[1]), AsString(r[2])};
  }
  std::sort(recorded.begin(), recorded.end(),
            [](const Committed& a, const Committed& b) { return a.vid < b.vid; });
  Vid last_vid = 0;
  size_t included = 0;
  for (const Committed& c : recorded) {
    if (c.lsn > cut) continue;  // enqueued but never durable: died with the seam
    last_vid = std::max(last_vid, c.vid);
    ++included;
    model[c.pk] = {c.v, c.payload};
  }
  SCOPED_TRACE(::testing::Message() << "cut=" << cut << " recorded="
                                    << recorded.size() << " included="
                                    << included);
  EXPECT_GT(included, 0u);  // hit_at=30 lets a real prefix commit first
  EXPECT_EQ(node.applied_vid(), last_vid);

  std::vector<Row> expected;
  for (const auto& [pk, vp] : model) {
    expected.push_back({pk, vp.first, vp.second});
  }
  std::vector<Row> got;
  ASSERT_TRUE(node.ExecuteColumn(LScan(1, {0, 1, 2}), &got).ok());
  EXPECT_EQ(testing_util::Canonicalize(got),
            testing_util::Canonicalize(expected));

  // Row replica after the boot-time undo pass (in-flight page effects of
  // commits that died with the seam get rolled back).
  (void)node.RecoverRowReplica();
  RowTable* replica = node.engine()->GetTable(1);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(testing_util::Canonicalize(
                testing_util::TreeImages(*replica, expected)),
            testing_util::Canonicalize(expected));
  EXPECT_EQ(replica->row_count(), expected.size());
}

// Every guaranteed commit-path seam: the record enqueue (logstore.append),
// the backing file append (polarfs.append_file), and the group-commit fsync
// (polarfs.fsync).
INSTANTIATE_TEST_SUITE_P(Seams, FaultPointCrashTest,
                         ::testing::Values("logstore.append",
                                           "polarfs.append_file",
                                           "polarfs.fsync"));

// --- Mid-transaction checkpoint --------------------------------------------
// A checkpoint taken while a transaction is in flight flushes replica pages
// that already contain the transaction's *undecided* page effects (Phase#1
// replay is commit-agnostic). The inflight blob therefore carries the newest
// committed pre-image of every row such a transaction touched, and a booting
// node rebuilds its version chains from them — gating the dirty tree images
// behind the commit decision exactly like the node that took the checkpoint
// did, and keeping them undoable should the decision never arrive. Reverting
// the pre-image plumbing (SerializeInflight's touched-row section or
// RestoreInflight's InstallBootInflight calls) fails both arms below: the
// booted node would read in-flight after-images as committed state, and the
// recovery node's undo pass would find no chains to roll back.
TEST(MidTxnCheckpointTest, BootedNodeGatesUndecidedCheckpointEffects) {
  PolarFs fs;
  Catalog catalog;
  RwNode rw(&fs, &catalog);
  ASSERT_TRUE(rw.CreateTable(KvSchema()).ok());
  std::vector<Row> base;
  for (int64_t pk = 0; pk < 20; pk += 2) {
    base.push_back({pk, int64_t(0), std::string("base")});
  }
  ASSERT_TRUE(rw.BulkLoad(1, base).ok());
  ASSERT_TRUE(rw.FinishLoad().ok());

  RoNodeOptions ro_opts;
  RoNode leader("leader", &fs, &catalog, ro_opts);
  ASSERT_TRUE(leader.Boot().ok());
  ASSERT_TRUE(leader.CatchUpNow().ok());

  auto* txns = rw.txn_manager();
  Transaction committed;
  txns->Begin(&committed);
  ASSERT_TRUE(txns->Update(&committed, 1, 2,
                           {int64_t(2), int64_t(100), std::string("committed")})
                  .ok());
  ASSERT_TRUE(txns->Commit(&committed).ok());

  // In flight across the checkpoint: an update, a delete and an insert, all
  // shipped commit-ahead, none decided.
  Transaction t;
  txns->Begin(&t);
  ASSERT_TRUE(
      txns->Update(&t, 1, 4, {int64_t(4), int64_t(999), std::string("dirty")})
          .ok());
  ASSERT_TRUE(txns->Delete(&t, 1, 6).ok());
  ASSERT_TRUE(
      txns->Insert(&t, 1, {int64_t(100), int64_t(7), std::string("ghost")})
          .ok());
  // The in-flight DMLs are shipped commit-ahead but sit above the durable
  // watermark until some batch fsync covers them — and the pipeline consumes
  // only the durable prefix. Make the written tail durable so the leader
  // buffers them and the checkpoint below carries the in-flight section
  // this test exercises.
  LogStore* redo = fs.log("redo");
  const Lsn tail = redo->written_lsn();
  ASSERT_TRUE(redo->SyncTo(tail).ok());

  ASSERT_TRUE(leader.CatchUpNow().ok());
  ASSERT_EQ(leader.pipeline()->read_lsn(), tail);
  ASSERT_TRUE(leader.pipeline()->TakeCheckpoint(1).ok());

  // The committed prefix at the checkpoint: the base rows with pk 2 updated
  // and no trace of the in-flight transaction.
  std::map<int64_t, std::pair<int64_t, std::string>> model;
  for (const Row& r : base) {
    model[AsInt(r[0])] = {AsInt(r[1]), AsString(r[2])};
  }
  model[2] = {100, "committed"};
  std::vector<Row> expected;
  for (const auto& [pk, vp] : model) {
    expected.push_back({pk, vp.first, vp.second});
  }

  // Arm 1: a node booted from the checkpoint before the decision. Its raw
  // replica tree holds the dirty effects, but snapshot reads resolve through
  // the boot-installed chains to the committed pre-images.
  RoNode booted("booted", &fs, &catalog, ro_opts);
  ASSERT_TRUE(booted.Boot().ok());
  std::vector<Row> got;
  ASSERT_TRUE(booted.ExecuteRow(LScan(1, {0, 1, 2}), &got).ok());
  EXPECT_EQ(testing_util::Canonicalize(got),
            testing_util::Canonicalize(expected));

  // Arm 2: crash right here — the decision never becomes durable. A recovery
  // node boots from the checkpoint in a fresh store; the undo pass restores
  // the committed images the checkpoint's pre-image section preserved.
  const Lsn cut = fs.log("redo")->written_lsn();
  PolarFs fs2;
  for (PageId id : fs.ListPages()) {
    Blob image;
    ASSERT_TRUE(fs.ReadPage(id, &image).ok());
    ASSERT_TRUE(fs2.WritePage(id, std::move(image)).ok());
  }
  for (const std::string& name : fs.ListFiles("")) {
    if (name.rfind("log/", 0) == 0) continue;
    std::string data;
    ASSERT_TRUE(fs.ReadFile(name, &data).ok());
    ASSERT_TRUE(fs2.WriteFile(name, std::move(data)).ok());
  }
  std::vector<std::string> prefix;
  fs.log("redo")->Read(0, cut, &prefix);
  ASSERT_EQ(prefix.size(), cut);
  fs2.log("redo")->Append(std::move(prefix), /*durable=*/true);

  Catalog catalog2;
  catalog2.Register(KvSchema());
  RoNode rec("rec", &fs2, &catalog2, ro_opts);
  ASSERT_TRUE(rec.Boot().ok());
  ASSERT_TRUE(rec.CatchUpNow().ok());
  EXPECT_GE(rec.RecoverRowReplica(), 3u);  // the update, delete and insert
  RowTable* replica = rec.engine()->GetTable(1);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(testing_util::Canonicalize(
                testing_util::TreeImages(*replica, expected)),
            testing_util::Canonicalize(expected));
  EXPECT_EQ(replica->row_count(), expected.size());

  // Back on the live store the decision arrives, and the booted node's gated
  // effects become visible wholesale.
  ASSERT_TRUE(txns->Commit(&t).ok());
  ASSERT_TRUE(booted.CatchUpNow().ok());
  model[4] = {999, "dirty"};
  model.erase(6);
  model[100] = {7, "ghost"};
  std::vector<Row> after;
  for (const auto& [pk, vp] : model) {
    after.push_back({pk, vp.first, vp.second});
  }
  std::vector<Row> row_after;
  ASSERT_TRUE(booted.ExecuteRow(LScan(1, {0, 1, 2}), &row_after).ok());
  EXPECT_EQ(testing_util::Canonicalize(row_after),
            testing_util::Canonicalize(after));
  std::vector<Row> col_after;
  ASSERT_TRUE(booted.ExecuteColumn(LScan(1, {0, 1, 2}), &col_after).ok());
  EXPECT_EQ(testing_util::Canonicalize(col_after),
            testing_util::Canonicalize(after));
}

}  // namespace
}  // namespace imci
