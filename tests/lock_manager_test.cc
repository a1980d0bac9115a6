#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "rowstore/engine.h"
#include "rowstore/lock_manager.h"

namespace imci {
namespace {

// Short lock-wait timeout so conflict cases resolve quickly.
constexpr uint64_t kShortTimeoutUs = 3'000;

TEST(LockManagerTest, ExclusiveConflictsWithExclusive) {
  LockManager lm(kShortTimeoutUs);
  ASSERT_TRUE(lm.Lock(1, 7, 42).ok());
  EXPECT_TRUE(lm.Lock(2, 7, 42).IsBusy());
  // Different key or table: no conflict.
  EXPECT_TRUE(lm.Lock(2, 7, 43).ok());
  EXPECT_TRUE(lm.Lock(2, 8, 42).ok());
}

// True while another TID owns (table_id, key): the probe's Lock times out
// Busy until the owner releases. A granted probe is released at once, so
// probing leaves the table as it found it.
constexpr Tid kProbeTid = 999;
bool Held(LockManager* lm, TableId table_id, int64_t key) {
  Status s = lm->Lock(kProbeTid, table_id, key);
  if (s.ok()) lm->Unlock(kProbeTid, table_id, key);
  return s.IsBusy();
}

TEST(LockManagerTest, ExclusiveIsReentrant) {
  LockManager lm(kShortTimeoutUs);
  ASSERT_TRUE(lm.Lock(1, 7, 42).ok());
  EXPECT_TRUE(lm.Lock(1, 7, 42).ok());
  EXPECT_TRUE(Held(&lm, 7, 42));
  // A re-entrant grant is one hold: one release frees the key.
  lm.Unlock(1, 7, 42);
  EXPECT_FALSE(Held(&lm, 7, 42));
}

TEST(LockManagerTest, UnlockByNonOwnerIsNoOp) {
  LockManager lm(kShortTimeoutUs);
  ASSERT_TRUE(lm.Lock(1, 7, 42).ok());
  lm.Unlock(2, 7, 42);
  EXPECT_TRUE(lm.Lock(2, 7, 42).IsBusy());  // tid 1 still owns it
}

TEST(LockManagerTest, ReleaseWakesWaiter) {
  LockManager lm(/*timeout_us=*/2'000'000);
  ASSERT_TRUE(lm.Lock(1, 7, 42).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Status s = lm.Lock(2, 7, 42);
    EXPECT_TRUE(s.ok()) << s.ToString();
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  lm.Unlock(1, 7, 42);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

std::shared_ptr<const Schema> TwoColSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  return std::make_shared<Schema>(1, "t", cols, 0);
}

/// Release-all-on-commit through the transaction manager: rows touched by a
/// committed (or rolled-back) transaction are immediately lockable again.
TEST(LockManagerTest, TransactionCommitReleasesAllRowLocks) {
  PolarFs fs;
  Catalog catalog;
  RowStoreEngine engine(&fs, &catalog);
  RedoWriter redo(fs.log("redo"));
  LockManager locks(kShortTimeoutUs);
  TransactionManager txns(&engine, &redo, &locks);
  ASSERT_TRUE(engine.CreateTable(TwoColSchema()).ok());

  Transaction writer;
  txns.Begin(&writer);
  for (int64_t pk = 0; pk < 10; ++pk) {
    ASSERT_TRUE(txns.Insert(&writer, 1, {pk, pk * 2}).ok());
  }
  for (int64_t pk = 0; pk < 10; ++pk) EXPECT_TRUE(Held(&locks, 1, pk));

  // A concurrent transaction cannot touch the uncommitted rows.
  Transaction other;
  txns.Begin(&other);
  Row row;
  EXPECT_TRUE(txns.GetForUpdate(&other, 1, 3, &row).IsBusy());

  ASSERT_TRUE(txns.Commit(&writer).ok());
  for (int64_t pk = 0; pk < 10; ++pk) EXPECT_FALSE(Held(&locks, 1, pk));
  // ... and after commit every one of them is grantable.
  for (int64_t pk = 0; pk < 10; ++pk) {
    ASSERT_TRUE(txns.GetForUpdate(&other, 1, pk, &row).ok());
    EXPECT_EQ(AsInt(row[1]), pk * 2);
  }
  for (int64_t pk = 0; pk < 10; ++pk) EXPECT_TRUE(Held(&locks, 1, pk));
  ASSERT_TRUE(txns.Rollback(&other).ok());
  for (int64_t pk = 0; pk < 10; ++pk) EXPECT_FALSE(Held(&locks, 1, pk));
}

}  // namespace
}  // namespace imci
