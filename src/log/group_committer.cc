#include "log/group_committer.h"

#include <cassert>

#include "log/log_store.h"

namespace imci {

Status GroupCommitter::SyncTo(Lsn lsn) {
  commits_.fetch_add(1, std::memory_order_relaxed);
  // Fast path: an earlier batch's fsync ran after our record was already in
  // the segment file, so we are durable without waiting at all. (A poison
  // trims only above the watermark, so a covered record stays covered.)
  if (durable_lsn_.load(std::memory_order_acquire) >= lsn) return Status::OK();
  std::unique_lock<std::mutex> l(mu_);
  while (durable_lsn_.load(std::memory_order_relaxed) < lsn) {
    // The log's latch fails every commit above the watermark — ours
    // included, whether we lead, follow, or arrive late. Checked on every
    // wake-up: the latch can be set while we wait.
    if (!log_->poison_.ok()) return log_->poison_;
    if (leader_active_) {
      // Follower: a leader's fsync is in flight. If it covers us we are
      // woken durable; if we appended after its snapshot we loop and the
      // next batch picks us up.
      cv_.wait(l);
      continue;
    }
    // Leader: snapshot the written tail first — the one fsync below covers
    // every record write-through appended up to this instant, not just ours.
    // With the latch clear under mu_, no poison has rolled the tail back
    // below our published record.
    const Lsn target = log_->written_lsn();
    assert(lsn <= target && "SyncTo on an LSN that was never appended");
    if (lsn > target) lsn = target;
    leader_active_ = true;
    l.unlock();
    Status s = log_->Sync();
    // The batch fsync failed: nothing in (durable, target] is guaranteed on
    // the device. Poison the log (trims the un-fsynced tail; both mutexes
    // are free here) and fail every waiter through the latch.
    if (!s.ok()) log_->PoisonToDurable(s);
    l.lock();
    leader_active_ = false;
    cv_.notify_all();
    if (!s.ok()) return s;
    // Advance only while the latch is clear: a poison that landed during the
    // fsync has already trimmed the tail to the old watermark.
    if (!log_->poison_.ok()) return log_->poison_;
    if (target > durable_lsn_.load(std::memory_order_relaxed)) {
      durable_lsn_.store(target, std::memory_order_release);
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

}  // namespace imci
