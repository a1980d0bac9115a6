#include "log/group_committer.h"

#include <cassert>

#include "log/log_store.h"

namespace imci {

Status GroupCommitter::SyncTo(Lsn lsn) {
  commits_.fetch_add(1, std::memory_order_relaxed);
  // Guard the precondition (`lsn` already appended and published): a batch
  // can never cover a future LSN, so waiting on one would fsync in an
  // unbounded loop. Clamp to the published tail — and make the misuse loud
  // in debug builds.
  const Lsn tail = log_->written_lsn();
  if (lsn > tail && log_->poisoned()) {
    // A poison rollback trimmed the published tail below our already-
    // assigned LSN: our record is gone from the device, the commit fails.
    // (PoisonToDurable latches poisoned() before rolling written_lsn back,
    // so observing the rollback implies observing the latch.)
    return Status::IOError("log '" + log_->name() +
                           "' poisoned by a failed fsync; Reopen() to "
                           "recover");
  }
  assert(lsn <= tail && "SyncTo on an LSN that was never appended");
  if (lsn > tail) lsn = tail;
  // Fast path: an earlier batch's fsync ran after our record was already in
  // the segment file, so we are durable without waiting at all.
  if (durable_lsn_.load(std::memory_order_acquire) >= lsn) return Status::OK();
  std::unique_lock<std::mutex> l(mu_);
  while (durable_lsn_.load(std::memory_order_relaxed) < lsn) {
    // A failed batch fsync fails every commit at or above the watermark —
    // ours included, whether we led, followed, or arrived late.
    if (!poisoned_.ok()) return poisoned_;
    if (leader_active_) {
      // Follower: a leader's fsync is in flight. If it covers us we are
      // woken durable; if we appended after its snapshot we loop and the
      // next batch picks us up.
      cv_.wait(l);
      continue;
    }
    // Leader: snapshot the written tail first — the one fsync below covers
    // every record write-through appended up to this instant, not just ours.
    leader_active_ = true;
    const Lsn target = log_->written_lsn();
    l.unlock();
    Status s = log_->Sync();
    if (!s.ok()) {
      // The batch fsync failed: nothing in (durable, target] is guaranteed
      // on the device. Do NOT advance the watermark; poison the log (trims
      // the un-fsynced tail — both mutexes are free here, establishing the
      // LogStore::mu_ → mu_ nesting ResetDurable also uses) and fail every
      // waiter.
      log_->PoisonToDurable(durable_lsn_.load(std::memory_order_acquire));
      l.lock();
      leader_active_ = false;
      poisoned_ = s;
      cv_.notify_all();
      return s;
    }
    l.lock();
    leader_active_ = false;
    if (target > durable_lsn_.load(std::memory_order_relaxed)) {
      durable_lsn_.store(target, std::memory_order_release);
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    cv_.notify_all();
  }
  return Status::OK();
}

}  // namespace imci
