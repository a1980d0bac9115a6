#ifndef POLARDB_IMCI_LOG_LOG_STORE_H_
#define POLARDB_IMCI_LOG_LOG_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace imci {

class GroupCommitter;
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
/// Durability is write-through: every append lands in the segment file
/// immediately; `durable` appends additionally wait until a group-commit
/// fsync covers them (see GroupCommitter) — concurrent durable appenders
/// share one fsync per batch instead of paying one each.
///
/// Recycling: `Truncate(lsn)` deletes whole sealed segments entirely at or
/// below `lsn` — the checkpoint-driven space reclaim of §7 — and persists
/// the truncation watermark so recovery knows where the log now begins.
///
/// Recovery: `Open()` (or `Reopen()` after a simulated crash) re-reads the
/// segment files, verifies every frame checksum, stops at the first torn or
/// corrupt frame — including a tear that lands exactly on a segment
/// boundary — trims the damaged durable tail, and deletes any orphaned
/// later segments.
///
/// Failure model (common/fault.h): fault points `logstore.append`,
/// `logstore.read`, `logstore.recover`, `logstore.truncate`, plus whatever
/// PolarFs injects underneath. The log has ONE failure latch, and it holds
/// the reason. A failed *batch fsync* (GroupCommitter), a failed
/// write-through append, or a writer whose refused records already changed
/// its state (PoisonToDurable) **poisons** the log: the un-fsynced tail is
/// cut at the durable watermark (device-side it was never guaranteed), every
/// commit waiting on an fsync fails, and all further appends, syncs and
/// truncations fail fast until `Reopen()` trims the segment files to the
/// cut and recovers the store clean there. The latch is set under the group
/// committer's mutex, the same mutex a batch leader advances the watermark
/// under, so the watermark never advances past an fsync that did not happen
/// nor past a poison cut.
class LogStore {
 public:
  /// Does not recover; call Open() before use (PolarFs::log does both).
  /// `segment_bytes` is a soft cap on a segment's payload size. Appending
  /// never splits a record: the active segment is sealed at the first
  /// record boundary at or past this size, so segments can exceed it by at
  /// most one record.
  LogStore(PolarFs* fs, std::string name, size_t segment_bytes);
  ~LogStore();

  /// Scans the segment files and rebuilds the in-memory index, detecting and
  /// trimming a torn tail. Idempotent.
  Status Open();

  /// Drops all in-memory state and recovers from the segment files again, as
  /// a restarting node would. Tests simulate crashes by mutilating segment
  /// files between appends and Reopen(). A poisoned log is first trimmed to
  /// its cut; only a recovery that completes clears the latch.
  Status Reopen();

  /// Appends a batch of records; returns the LSN of the last one. When
  /// `durable`, blocks until a group-commit fsync covers the batch (the
  /// commit-path flush; concurrent durable appends share one fsync per
  /// leader batch). Thread-safe; LSN order == append order.
  ///
  /// Returns 0 and sets `*error` (when non-null) if the append failed:
  /// the log is poisoned, the write-through failed (which poisons it), or
  /// the covering batch fsync failed (the commit is NOT durable). A refusal
  /// at fault point `logstore.append` wrote nothing and does not poison.
  Lsn Append(std::vector<std::string> records, bool durable,
             Status* error = nullptr);

  /// Explicit immediate fsync of the log. Accounting only — appends are
  /// already write-through. Group-commit leaders call this once per batch;
  /// prefer SyncTo() on the commit path.
  Status Sync();

  /// Blocks until every record at or below `lsn` is durable, joining the
  /// leader-based group commit (GroupCommitter::SyncTo). `lsn` must already
  /// be appended. Call *outside* any commit-ordering mutex so concurrent
  /// commits can batch. Fails (and poisons the log) when the covering batch
  /// fsync fails.
  Status SyncTo(Lsn lsn);

  /// Records at or below this LSN are covered by an fsync.
  Lsn durable_lsn() const;

  /// The log's group committer (batching stats: batches/commits/
  /// fsyncs-per-commit/mean-batch-size).
  GroupCommitter* group() const { return group_.get(); }

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
  /// Reopen() recovers it clean at the durable watermark.
  bool poisoned() const;

  /// Sets the failure latch to `cause` and cuts the log at the durable
  /// watermark, read under the group committer's mutex together with the
  /// latch: the un-fsynced tail above it leaves the in-memory index now and
  /// the segment files at the next Open(), and written_lsn() rolls back to
  /// it. Called when a batch fsync or a write-through append fails, and by
  /// a writer whose refused append left state the log no longer matches.
  /// Only the first call latches and cuts.
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

  friend class GroupCommitter;  // reads poison_ under its own mutex

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
  mutable std::condition_variable cv_;
  std::unique_ptr<GroupCommitter> group_;
  std::deque<Segment> segments_;  // ascending LSN; back() is active
  std::atomic<Lsn> written_lsn_{0};
  std::atomic<Lsn> truncated_lsn_{0};
  /// The failure latch: non-OK from the first poison until Open(). Written
  /// holding both mu_ and the group committer's mutex, so either reads it.
  Status poison_;
};

}  // namespace imci

#endif  // POLARDB_IMCI_LOG_LOG_STORE_H_
