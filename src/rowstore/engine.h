#ifndef POLARDB_IMCI_ROWSTORE_ENGINE_H_
#define POLARDB_IMCI_ROWSTORE_ENGINE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/snapshot_registry.h"
#include "polarfs/polarfs.h"
#include "redo/redo_writer.h"
#include "rowstore/binlog.h"
#include "rowstore/buffer_pool.h"
#include "rowstore/lock_manager.h"
#include "rowstore/mvcc.h"
#include "rowstore/table.h"

namespace imci {

/// Node-local row storage engine: tables + buffer pool + page allocation.
/// The RW node owns the authoritative instance; RO nodes own replicas whose
/// pages are maintained by Phase#1 replay.
class RowStoreEngine {
 public:
  RowStoreEngine(PolarFs* fs, Catalog* catalog, size_t pool_capacity = 0);

  /// Creates an empty table and registers the schema in the shared catalog.
  Status CreateTable(std::shared_ptr<const Schema> schema);

  /// Attaches to a table whose pages already exist in shared storage (RO
  /// boot path). `meta_page_id` comes from the RW's table registry file.
  Status AttachTable(std::shared_ptr<const Schema> schema,
                     PageId meta_page_id);

  RowTable* GetTable(TableId id);
  const RowTable* GetTable(TableId id) const;
  /// Every registered table (checkpoint-time version pruning walks these).
  std::vector<RowTable*> AllTables();

  BufferPool* buffer_pool() { return &pool_; }
  Catalog* catalog() { return catalog_; }
  const Catalog* catalog() const { return catalog_; }

  /// Live snapshots on this node (common/snapshot_registry.h): the RW's
  /// transaction manager registers its read views here, an RO node its
  /// row-engine and column-engine reads and fragment pins (its ImciStore
  /// shares this instance) — and every version trim/prune on this engine's
  /// tables bounds itself by the same registry's watermark.
  SnapshotRegistry* row_snapshots() { return &row_snaps_; }

  /// ARIES-style undo at boot: rolls back the page effects of every
  /// transaction whose versions are still unstamped at the end of physical
  /// replay, restoring each touched row to the newest committed image its
  /// version chain recorded. Only valid over a *final* log (crash
  /// recovery): a live pipeline would still deliver those transactions'
  /// commit decisions. Returns the number of versions undone.
  size_t UndoInflight();

  /// Engine-wide MVCC counters: the per-table snapshots summed (max for the
  /// chain-length bound). O(tables), not O(chains) — each table's snapshot
  /// is a counter read.
  MvccStats MvccStatsSnapshot() const;

  /// Flushes all dirty pages to shared storage and persists the table
  /// registry (table id -> meta page id) so other nodes can attach.
  Status CheckpointPages();

  /// Loads the table registry persisted by CheckpointPages.
  static Status LoadRegistry(
      PolarFs* fs, std::vector<std::pair<TableId, PageId>>* entries);

 private:
  PolarFs* fs_;
  Catalog* catalog_;
  BufferPool pool_;
  std::atomic<PageId> page_alloc_{0};
  SnapshotRegistry row_snaps_;
  mutable std::mutex mu_;
  std::unordered_map<TableId, std::unique_ptr<RowTable>> tables_;
};

/// A client transaction on the RW node. Created by TransactionManager;
/// not thread-safe (one session uses one transaction at a time).
class Transaction {
 public:
  Tid tid() const { return tid_; }
  Vid commit_vid() const { return commit_vid_; }
  /// LSN of the commit record (0 until Commit succeeds). Commit-VID order
  /// equals commit-LSN order, so a durable-LSN watermark also cuts the
  /// commit history at a VID prefix (what crash recovery restores).
  Lsn commit_lsn() const { return commit_lsn_; }

 private:
  friend class TransactionManager;
  void NoteWrite(TableId table, int64_t pk);

  Tid tid_ = 0;
  Lsn last_lsn_ = 0;
  Vid commit_vid_ = 0;
  Lsn commit_lsn_ = 0;
  bool finished_ = false;
  /// The first refused ship (OK while none was), or a poison that cut the
  /// log below a shipped record (TransactionManager::Refusal). Such a
  /// transaction writes nothing more to the log: a later Write fails, and
  /// Commit rolls back.
  Status refused_;
  /// The log's poisons already checked against the shipped records: the
  /// count before the first ship, advanced by each check they survive.
  uint64_t poisons_ = 0;
  /// Write set: the pks written per table. Commit stamps their versions;
  /// undo restores them from their version chains (RowTable::UndoWrites).
  std::map<TableId, std::vector<int64_t>> writes_;
  std::vector<std::pair<TableId, int64_t>> locks_;
  std::vector<BinlogWriter::Event> binlog_events_;
};

/// MVCC read view: a snapshot VID registered in the engine's
/// SnapshotRegistry, so commit-time chain trimming and checkpoint pruning
/// keep every version the view can still read. All reads through one view
/// observe a single commit point (snapshot isolation). RW views come from
/// TransactionManager::OpenReadView.
using ReadView = SnapshotRegistry::View;

/// Transaction execution on the RW node (§3.1 "Transaction Exe."): strict
/// 2PL row locks for writers, eager (commit-ahead) REDO shipping of DML
/// records, a single durable commit record per transaction, and compensating
/// system records on rollback so replica pages converge without exposing
/// aborted DMLs.
///
/// Every redo append's outcome is honoured. A refused record that already
/// changed a page (DML, SMO, compensation) or that replicas act on (the
/// abort record, a binlog record behind the redo commit record) poisons the
/// redo log and fails the statement, and its transaction can only roll back,
/// in memory alone: a reopened log lacks its trimmed records, so neither a
/// commit record nor compensation may follow them. So can a transaction
/// with a shipped record above a poison's cut, which a restarting RW would
/// lose too. A refused commit record wrote nothing: its transaction rolls
/// back normally.
///
/// Readers never lock and never block: every read runs at an MVCC snapshot
/// VID taken under the existing commit ordering (commit-VID ≡ commit-LSN, so
/// snapshots are free — the current published commit point IS the snapshot).
/// Commit stamps the transaction's row versions with its VID *before*
/// publishing that VID as the new snapshot point, so a snapshot S always
/// sees exactly the transactions with commit VID <= S. A commit is
/// published only once the group-commit durable watermark covers its
/// record, so no reader observes a commit a crash or a refused fsync could
/// still erase. `GetForUpdate` is the one read of the latest image, and it
/// holds the exclusive row lock.
class TransactionManager {
 public:
  TransactionManager(RowStoreEngine* engine, RedoWriter* redo,
                     LockManager* locks, BinlogWriter* binlog = nullptr);

  void Begin(Transaction* txn);

  Status Insert(Transaction* txn, TableId table, const Row& row);
  Status Update(Transaction* txn, TableId table, int64_t pk, const Row& row);
  Status Delete(Transaction* txn, TableId table, int64_t pk);
  /// Locks the row, then reads it (SELECT ... FOR UPDATE).
  Status GetForUpdate(Transaction* txn, TableId table, int64_t pk, Row* row);

  /// Single-statement read through a read view opened for it.
  Status Get(TableId table, int64_t pk, Row* row);

  /// Opens a read view at the current commit point; all reads through it see
  /// one consistent snapshot until it closes.
  ReadView OpenReadView();
  Status Get(const ReadView& view, TableId table, int64_t pk, Row* row);
  Status Scan(const ReadView& view, TableId table,
              const std::function<bool(int64_t, const Row&)>& fn);
  Status ScanRange(const ReadView& view, TableId table, int64_t lo, int64_t hi,
                   const std::function<bool(int64_t, const Row&)>& fn);

  /// Commits: assigns the commit sequence number (VID) and enqueues the
  /// commit record under a short critical section (preserving commit-VID ≡
  /// commit-LSN order), then waits for the log's group-commit fsync outside
  /// it — concurrent commits share one fsync per batch. In binlog mode the
  /// logical record joins the same discipline (the strawman's second fsync
  /// becomes per-batch). The commit is visible to new snapshots before its
  /// row locks are released. Returns the commit VID via the txn. A refused
  /// commit-record append rolls the transaction back, and so does an
  /// earlier refused ship or a poison that cut a shipped record (its status
  /// is returned).
  Status Commit(Transaction* txn);
  /// Restores every written row and ships the compensation and abort
  /// records. Memory is restored even when the log refuses them; the first
  /// refusal is returned. After a refused ship nothing is shipped.
  Status Rollback(Transaction* txn);

  /// Enables/disables the Binlog strawman (Fig. 11).
  void set_binlog_enabled(bool on) { binlog_enabled_ = on; }

  /// Commit point visible to new snapshots: the highest VID whose commit
  /// record is durable (published after version stamping, so a snapshot <=
  /// this VID always resolves).
  Vid snapshot_vid() const {
    return snapshot_vid_.load(std::memory_order_acquire);
  }
  /// Version-chain pruning bound: no live (or future) snapshot reads below
  /// this VID. Checkpoints prune row version chains to it.
  Vid PruneWatermark() const;

  Vid last_commit_vid() const { return next_vid_.load(); }
  uint64_t commits() const { return commits_.load(); }

 private:
  /// The one redo append outside Commit; a refusal poisons the log. With a
  /// `txn`, stamps its TID and prev_lsn on every non-SMO record (DML, abort)
  /// and advances its last_lsn_, or records the refusal in it; without one,
  /// ships rollback compensation as system records (TID 0).
  Status Ship(Transaction* txn, std::span<RedoRecord> records);
  /// The transaction's refusal: its refused ship, or an IOError once a
  /// poison cut the log below one of its shipped records (recorded as
  /// refused_). OK while neither happened.
  Status Refusal(Transaction* txn);
  /// Insert/Update/Delete: locks the row and runs `op` with a ship that adds
  /// the pk to the write set first (the page has changed, so undo must cover
  /// it whatever the append's outcome). `row` is null for a delete.
  Status Write(Transaction* txn, RowTable* t, int64_t pk,
               BinlogWriter::Event::Op op, const Row* row);
  void ReleaseLocks(Transaction* txn);
  /// Publication: advances snapshot_vid_ over every queued commit
  /// whose record LSN the redo durable watermark now covers. Called after a
  /// successful group-commit sync; safe to race (pub_mu_).
  void PublishDurable();
  /// Failure path: a refused batch fsync trimmed the log's
  /// un-fsynced tail, so queued publications above the durable watermark
  /// name commits that no longer exist. Dropping them here is what keeps
  /// them unpublishable forever — later appends reuse the trimmed LSN range,
  /// and a stale queue entry would otherwise "become durable" when an
  /// unrelated record lands on its LSN.
  void DropLostPublications();
  /// Failure path, RW-side state: the refused batch fsync trimmed
  /// this transaction's commit record, but StampCommitLocked already stamped
  /// its row versions — a later commit publishing a higher VID (possible
  /// after the log reopens) would make them visible, exposing a commit the
  /// log no longer contains. Called under the still-held row locks, before
  /// ReleaseLocks and DropLostPublications: restores every written row to
  /// the newest committed version below the lost VID in its chain (no redo
  /// shipping — the poisoned log refuses appends, and recovery rebuilds the
  /// same pre-batch state anyway) and unlinks the stamped versions, so the
  /// in-memory engine agrees with what recovery would rebuild.
  void RetractLostCommit(Transaction* txn);
  /// Stamps the txn's versions with its commit VID and trims chains below
  /// `trim_hint` (a PruneWatermark() value sampled before commit_mu_ was
  /// acquired — conservative by construction). Called under commit_mu_.
  void StampCommitLocked(Transaction* txn, Vid trim_hint);

  RowStoreEngine* engine_;
  RedoWriter* redo_;
  LockManager* locks_;
  BinlogWriter* binlog_;
  bool binlog_enabled_ = false;
  std::atomic<Tid> next_tid_{0};
  std::atomic<Vid> next_vid_{0};
  /// Published snapshot point: advanced (in VID order, under pub_mu_) only
  /// by PublishDurable, after the commit's versions are stamped and its
  /// record is durable.
  ///
  /// The live-view registry and the prune-watermark hint live in the
  /// engine's SnapshotRegistry (common/snapshot_registry.h) — the same
  /// instance every trim/prune site on this engine consults — not here:
  /// read views opened through this manager and any other row snapshot on
  /// the engine share one watermark.
  std::atomic<Vid> snapshot_vid_{0};
  /// Keeps VID order == commit-record LSN order. Held only across VID
  /// assignment and record *enqueue* — never across the durability wait —
  /// so the commit ceiling is set by the group-commit batch rate, not by a
  /// serialized fsync per transaction.
  std::mutex commit_mu_;
  /// Commits stamped but not yet covered by a durable batch
  /// fsync, in VID (≡ LSN) order. Guarded by pub_mu_ (acquired under
  /// commit_mu_ on the enqueue side only — publication takes pub_mu_ alone).
  std::mutex pub_mu_;
  std::deque<std::pair<Vid, Lsn>> pub_queue_;
  std::atomic<uint64_t> commits_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_ROWSTORE_ENGINE_H_
