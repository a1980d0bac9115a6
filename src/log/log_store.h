#ifndef POLARDB_IMCI_LOG_LOG_STORE_H_
#define POLARDB_IMCI_LOG_LOG_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace imci {

class PolarFs;

/// Sink for segments about to be recycled (the archive tier behind PITR —
/// see src/archive). Truncate hands every sealed segment's durable bytes to
/// the sink *before* deleting the file, and stops recycling when sealing
/// fails: once a sink is attached, history is never destroyed unarchived.
class ArchiveSink {
 public:
  virtual ~ArchiveSink() = default;
  virtual Status Seal(const std::string& log_name, Lsn first, Lsn last,
                      const std::string& framed) = 0;
};

/// A named, segmented, append-only log on shared storage (§3.1: the shared
/// log is the only RW→RO channel). One LogStore instance per log name is
/// shared by every node attached to the same PolarFs — obtain it through
/// `PolarFs::log(name)` — which is what makes the notify-by-LSN broadcast
/// (CALS, §5.1) work across nodes.
///
/// Layout: the log is a sequence of fixed-size segment files named
/// `log/<name>/seg_<first-lsn>`, each holding checksum-framed records
/// (`[len:4][hash:8][payload]`). LSNs are 1-based and dense across segments.
///
/// Group commit: appends are write-through (every record lands in the
/// segment file immediately), so durability is purely a matter of when the
/// fsync happens, and the log owns that too. A committer calls SyncTo(lsn)
/// after its record is appended and published: the first waiter that finds
/// no flush in progress becomes the batch *leader* — it snapshots the
/// written tail, issues one fsync covering every record appended up to that
/// instant (its own and everyone else's), advances the durable watermark to
/// the snapshot, and wakes the *followers*, who waited on the batch
/// condition variable instead of fsyncing themselves. Commits that arrive
/// while a flush is in flight pile up and are drained by the next leader in
/// one more fsync, so the fsync count scales with batch count, not client
/// count — the property that lifts the RW commit ceiling at high concurrency
/// (and that makes the Fig. 11 binlog strawman's *extra* fsync a per-batch,
/// not per-txn, cost). Batching changes *when* records become durable, never
/// their LSN order: LSNs are assigned at append time, and the commit-VID ≡
/// commit-LSN invariant Phase#2 replay relies on is the caller's enqueue-side
/// critical section (TransactionManager::Commit).
///
/// Two locks: `mu_` guards the segments and the written tail (appends,
/// reads, truncation, recovery); `batch_mu_` guards the flush in flight and
/// the watermark's advance. Lock order: mu_ → batch_mu_. No lock is held
/// across the fsync, and a SyncTo the watermark already covers takes none.
///
/// Recycling: `Truncate(lsn)` deletes whole sealed segments entirely at or
/// below `lsn` — the checkpoint-driven space reclaim of §7 — and persists
/// the truncation watermark so recovery knows where the log now begins.
///
/// Recovery: `Open()` re-reads the segment files, as a restarting node would,
/// verifies every frame checksum, stops at the first torn or corrupt frame —
/// including a tear that lands exactly on a segment boundary — trims the
/// damaged durable tail, and deletes any orphaned later segments.
///
/// Failure model (common/fault.h): fault points `logstore.append`,
/// `logstore.read`, `logstore.recover`, `logstore.truncate`, plus whatever
/// PolarFs injects underneath. The log has ONE failure latch, and it holds
/// the reason. A failed batch fsync, a failed write-through append, or a
/// writer whose refused records already changed its state (PoisonToDurable)
/// **poisons** the log: the un-fsynced tail is cut at the durable watermark
/// (device-side it was never guaranteed), every commit waiting on an fsync
/// fails — leader, parked follower or late arrival alike, since each waiter
/// re-checks the latch whenever it wakes — and all further appends, syncs
/// and truncations fail fast until `Open()` trims the segment files to the
/// cut and recovers the store clean there. The latch is set holding both
/// locks, and a leader advances the watermark under batch_mu_ only while the
/// latch is clear, so the watermark never advances past an fsync that did
/// not happen nor past a poison cut.
class LogStore {
 public:
  /// Does not recover; call Open() before use (PolarFs::log does both).
  /// `segment_bytes` is a soft cap on a segment's payload size. Appending
  /// never splits a record: the active segment is sealed at the first
  /// record boundary at or past this size, so segments can exceed it by at
  /// most one record.
  LogStore(PolarFs* fs, std::string name, size_t segment_bytes);

  /// Drops all in-memory state and rebuilds it from the segment files,
  /// detecting and trimming a torn tail; everything recovered is durable.
  /// Idempotent. Tests simulate crashes by mutilating segment files between
  /// appends and Open(). A poisoned log is first trimmed to its cut; only a
  /// recovery that completes clears the latch.
  Status Open();

  /// Appends a batch of records; returns the LSN of the last one. When
  /// `durable`, then waits in SyncTo for the batch. Thread-safe; LSN order
  /// == append order.
  ///
  /// Returns 0 and sets `*error` (when non-null) if the append failed:
  /// the log is poisoned, the write-through failed (which poisons it), or
  /// the covering batch fsync failed (the commit is NOT durable). A refusal
  /// at fault point `logstore.append` wrote nothing and does not poison.
  Lsn Append(std::vector<std::string> records, bool durable,
             Status* error = nullptr);

  /// Blocks until every record at or below `lsn` is durable, joining (or
  /// leading) a batch fsync as described above. `lsn` must already be
  /// appended. Call *outside* any commit-ordering mutex so concurrent
  /// commits can batch. Counts one commit against the batching stats.
  /// Fails — without advancing the durable watermark — when the log is
  /// poisoned before a batch covers `lsn` (a failed batch fsync poisons it).
  Status SyncTo(Lsn lsn);

  /// Records at or below this LSN are covered by an fsync. Monotonic until
  /// Open() recovers a mutilated tail.
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

  /// Reads records with LSN in (from, to] into `out` (appended in order).
  /// Recycled LSNs are skipped. Returns the LSN of the last record read.
  ///
  /// Honest on I/O failure: when a sealed segment's durable copy cannot be
  /// read, the scan STOPS there, `*error` (when non-null) carries the
  /// failure, and the returned LSN is the last record actually delivered —
  /// never a gap papered over by skipping ahead. Fault point
  /// `logstore.read`.
  Lsn Read(Lsn from, Lsn to, std::vector<std::string>* out,
           Status* error = nullptr) const;

  /// Recycles storage: deletes every *sealed* segment whose records are all
  /// <= `lsn` (segment-granular, so the cut never outruns `lsn`). The active
  /// segment is never recycled. Persists the watermark. A failed archive
  /// seal or watermark write surfaces as the returned status; recycling
  /// stops at the failure (never destroys unarchived history). Refused
  /// while poisoned. Fault point `logstore.truncate`.
  Status Truncate(Lsn lsn);

  /// Highest LSN that has been appended.
  Lsn written_lsn() const {
    return written_lsn_.load(std::memory_order_acquire);
  }

  /// All records at or below this LSN have been recycled.
  Lsn truncated_lsn() const {
    return truncated_lsn_.load(std::memory_order_acquire);
  }

  /// Blocks until written_lsn() > `lsn` or `timeout_us` elapsed. Returns the
  /// current written LSN. Pass timeout 0 for a non-blocking poll.
  Lsn WaitFor(Lsn lsn, uint64_t timeout_us) const;

  const std::string& name() const { return name_; }
  size_t segment_count() const;

  /// Attaches the archive sink. From then on Truncate seals every segment
  /// into the sink before deleting it, and stops recycling (leaving the
  /// segment live) when sealing fails.
  void set_archive(ArchiveSink* sink);

  /// True once the log is poisoned: appends and syncs fail fast until
  /// Open() recovers it clean at the durable watermark.
  bool poisoned() const;

  /// Poisons so far.
  uint64_t poisons() const {
    return poisons_.load(std::memory_order_acquire);
  }

  /// True when a poison that the count `*seen` does not include cut the log
  /// below `lsn`, so the record at `lsn` may be gone even if the log has
  /// reopened since. Otherwise brings `*seen` up to date.
  bool CutBelow(Lsn lsn, uint64_t* seen) const;

  /// Sets the failure latch to `cause` and cuts the log at the durable
  /// watermark, read under batch_mu_ together with the latch: the
  /// un-fsynced tail above it leaves the in-memory index now and the segment
  /// files at the next Open(), and written_lsn() rolls back to it. Called
  /// when a batch fsync or a write-through append fails, and by a writer
  /// whose refused append left state the log no longer matches. Only the
  /// first call latches and cuts.
  void PoisonToDurable(const Status& cause);

  /// Durable file name of the segment starting at `first_lsn` (exposed so
  /// tests can mutilate exactly the segment they mean to).
  static std::string SegmentFileName(const std::string& log_name,
                                     Lsn first_lsn);

  /// Splits checksum-framed segment bytes (`[len:4][hash:8][payload]`...)
  /// into payloads. Returns false when a torn or corrupt frame cut the scan
  /// short (`out` holds the good prefix).
  static bool DecodeFrames(const std::string& data,
                           std::vector<std::string>* out);

 private:
  struct Segment {
    Lsn first = 0;  // LSN of the first record
    Lsn last = 0;   // LSN of the last record (first - 1 when empty)
    bool sealed = false;
    std::string file;  // durable file name
    /// Framed records, mirror of the file — only while the segment is
    /// active. Sealed segments drop the mirror and are served from the
    /// single durable copy, so log bytes are not held twice.
    std::string data;
    std::vector<uint32_t> offsets;  // frame start offset per record
  };

  void StartSegmentLocked(Lsn first_lsn);
  /// PoisonToDurable with mu_ already held (the in-Append failure path).
  void PoisonToDurableLocked(const Status& cause);
  std::string WatermarkFileName() const;
  /// Parses `data` frames up to LSN `cut` into `seg`; returns false when a
  /// torn/corrupt frame or the cut left bytes unparsed (seg holds the good
  /// prefix).
  static bool ParseSegment(const std::string& data, Lsn cut, Segment* seg);

  PolarFs* fs_;
  const std::string name_;
  const size_t segment_bytes_;
  std::atomic<ArchiveSink*> archive_{nullptr};

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;  // written tail advanced (CALS)
  std::deque<Segment> segments_;        // ascending LSN; back() is active
  std::atomic<Lsn> written_lsn_{0};
  std::atomic<Lsn> truncated_lsn_{0};

  std::mutex batch_mu_;
  std::condition_variable batch_cv_;  // a batch fsync finished
  bool leader_active_ = false;  // guarded by batch_mu_: one flush in flight
  std::atomic<Lsn> durable_lsn_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> commits_{0};

  /// The failure latch: non-OK from the first poison until Open(). Written
  /// holding both mu_ and batch_mu_, so either reads it; so are the two
  /// below.
  Status poison_;
  std::vector<Lsn> cuts_;  // each poison's cut, in poison order
  std::atomic<uint64_t> poisons_{0};  // cuts_.size(), read lock-free
};

}  // namespace imci

#endif  // POLARDB_IMCI_LOG_LOG_STORE_H_
