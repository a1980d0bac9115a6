#ifndef POLARDB_IMCI_REDO_REDO_WRITER_H_
#define POLARDB_IMCI_REDO_REDO_WRITER_H_

#include <mutex>
#include <span>
#include <vector>

#include "log/log_store.h"
#include "redo/redo_record.h"

namespace imci {

/// Appends REDO records to the shared "redo" log on PolarFS. DML records of
/// an in-flight transaction are appended *eagerly* (non-durably) so that
/// CALS can ship them before commit; the commit record is made durable by
/// the log's leader-based group commit — append non-durably under the commit
/// mutex, then SyncTo() outside it, so concurrent commits share one fsync
/// per batch (the only logging fsync the RW pays, which is exactly the
/// property the Binlog baseline destroys, Fig. 11).
///
/// Thread-safe: many transaction threads append concurrently; LSNs are
/// assigned under the append lock, so LSN order == log order. The writer
/// holds no LSN of its own: it stamps from the log's written tail, so a
/// writer attached after recovery continues from the recovered tail. A
/// refused append is reported; whether it poisons the log is the caller's
/// call (TransactionManager).
class RedoWriter {
 public:
  explicit RedoWriter(LogStore* log) : log_(log) {}

  /// Assigns LSNs to `records`, serializes and appends them write-through,
  /// without waiting for durability; `*last` gets the LSN of the last one.
  /// On failure the records are not in the log, their LSNs were never
  /// published, and `*last` is 0.
  Status Append(std::span<RedoRecord> records, Lsn* last);

  /// LogStore::PoisonToDurable.
  void Poison(const Status& cause) { log_->PoisonToDurable(cause); }
  /// LogStore::poisons.
  uint64_t poisons() const { return log_->poisons(); }
  /// LogStore::CutBelow.
  bool CutBelow(Lsn lsn, uint64_t* seen) const {
    return log_->CutBelow(lsn, seen);
  }

  /// Blocks until every record at or below `lsn` is durable, joining the
  /// log's group commit (one fsync per batch of concurrent committers).
  /// Call *outside* the commit-ordering mutex so batches can form. Fails
  /// when the covering batch fsync failed (the commit is NOT durable).
  Status SyncTo(Lsn lsn) { return log_->SyncTo(lsn); }

  Lsn written_lsn() const { return log_->written_lsn(); }

  /// Group-commit durable watermark: every record at or below this LSN has
  /// been covered by a successful batch fsync. After a failed batch fsync
  /// the log trims its un-fsynced tail, so LSNs above this point name
  /// records that no longer exist (durable-visibility publication drops
  /// them).
  Lsn durable_lsn() const { return log_->durable_lsn(); }

 private:
  LogStore* log_;
  std::mutex mu_;
};

/// Reads and deserializes REDO records from the shared log; used by RO nodes'
/// CALS receivers.
class RedoReader {
 public:
  explicit RedoReader(const LogStore* log) : log_(log) {}

  /// Reads records with LSN in (from, to]; appends to `out`. Returns the last
  /// LSN read (== from when nothing new). A storage failure stops the scan
  /// and is reported via `*error` (when non-null) — see LogStore::Read. So
  /// does a record that fails to decode: the scan returns the LSN before it
  /// and `*error` is Corruption naming its LSN.
  Lsn Read(Lsn from, Lsn to, std::vector<RedoRecord>* out,
           Status* error = nullptr) const;

 private:
  const LogStore* log_;
};

}  // namespace imci

#endif  // POLARDB_IMCI_REDO_REDO_WRITER_H_
