#ifndef POLARDB_IMCI_LOG_GROUP_COMMITTER_H_
#define POLARDB_IMCI_LOG_GROUP_COMMITTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/status.h"
#include "common/types.h"

namespace imci {

class LogStore;

/// Leader-based group commit for a LogStore: one fsync per *batch* of
/// concurrent durable appends instead of one per append.
///
/// Appends are write-through (LogStore lands every record in the segment
/// file immediately), so durability is purely a matter of when the fsync
/// happens. A committer calls SyncTo(lsn) after its record is appended and
/// published: the first waiter that finds no flush in progress becomes the
/// batch *leader* — it snapshots the log's written tail, issues a single
/// Sync() covering every record appended up to that instant (its own and
/// everyone else's), advances the durable watermark to the snapshot, and
/// wakes the *followers*, who were blocked on the condition variable instead
/// of fsyncing themselves. Commits that arrive while a flush is in flight
/// pile up and are drained by the next leader in one more fsync, so the
/// fsync count scales with batch count, not client count — the property
/// that lifts the RW commit ceiling at high concurrency (and that makes the
/// Fig. 11 binlog strawman's *extra* fsync a per-batch, not per-txn, cost).
///
/// Ordering note: batching changes *when* records become durable, never
/// their LSN order — LSNs are assigned at append time, before SyncTo. The
/// commit-VID ≡ commit-LSN invariant Phase#2 replay relies on is enforced by
/// the caller's enqueue-side critical section (TransactionManager::Commit).
///
/// Failure model: the committer obeys the log's one latch
/// (LogStore::PoisonToDurable), set under this committer's mutex. A failed
/// batch fsync poisons the log, failing EVERY commit in the batch, and the
/// durable watermark does not move. A leader advances the watermark only
/// while the latch is clear, so a poison landing during its fsync (a failed
/// write-through append) fails the batch too; waiters check the latch on
/// every wake-up. Later commits fail fast until Reopen().
class GroupCommitter {
 public:
  explicit GroupCommitter(LogStore* log) : log_(log) {}

  /// Blocks until every record at or below `lsn` is durable, joining (or
  /// leading) a batch fsync as described above. `lsn` must already be
  /// appended to the log and published via written_lsn(). Counts one commit
  /// against the batching stats. Fails — without advancing the durable
  /// watermark — when the log is poisoned before a batch covers `lsn`.
  Status SyncTo(Lsn lsn);

  /// Records at or below this LSN are durable. Monotonic.
  Lsn durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Leader fsync batches issued.
  uint64_t batches() const {
    return batches_.load(std::memory_order_relaxed);
  }
  /// Durable commits (SyncTo calls) served.
  uint64_t commits() const {
    return commits_.load(std::memory_order_relaxed);
  }
  /// batches/commits: 1.0 single-threaded, < 1 whenever batching happens.
  double fsyncs_per_commit() const {
    const uint64_t c = commits();
    return c == 0 ? 0.0 : static_cast<double>(batches()) / c;
  }
  /// commits/batches: how many commits the average fsync covered.
  double mean_batch_size() const {
    const uint64_t b = batches();
    return b == 0 ? 0.0 : static_cast<double>(commits()) / b;
  }

 private:
  friend class LogStore;  // sets its latch and watermark under mu_

  LogStore* log_;
  /// Guards leader_active_, the watermark's advance and (with
  /// LogStore::mu_) the log's latch. Lock order: LogStore::mu_ → mu_.
  std::mutex mu_;
  std::condition_variable cv_;
  bool leader_active_ = false;  // guarded by mu_: at most one flush in flight
  std::atomic<Lsn> durable_lsn_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> commits_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_LOG_GROUP_COMMITTER_H_
