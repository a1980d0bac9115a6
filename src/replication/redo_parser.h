#ifndef POLARDB_IMCI_REPLICATION_REDO_PARSER_H_
#define POLARDB_IMCI_REPLICATION_REDO_PARSER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/schema.h"
#include "common/thread_pool.h"
#include "redo/redo_record.h"
#include "replication/logical_dml.h"
#include "rowstore/buffer_pool.h"
#include "rowstore/engine.h"

namespace imci {

/// Phase#1 of 2P-COFFER (§5.3): replays physical REDO records onto the RO
/// node's copy of the row store (its buffer pool) and reconstructs logical
/// DML statements. Parallelism is page-grained: within a chunk, records are
/// partitioned by Hash(PageID) mod N, and each worker applies its pages'
/// records in LSN order, which is conflict-free by construction.
///
/// The three challenges of reusing REDO (§5.2) are addressed here:
///  (1) schemas are recovered via the table id recorded on pages/records;
///  (2) system page changes (kSmo, and any record with TID 0 such as
///      rollback compensation) are applied to pages but never surface as
///      DMLs; SMO records act as ordering barriers because they touch
///      multiple pages;
///  (3) differential update logs are completed by reading the old row image
///      from the page before applying the diff.
class RedoParser {
 public:
  struct Decision {
    Tid tid = 0;
    bool commit = false;
    Vid vid = 0;
    uint64_t commit_ts_us = 0;
    Lsn lsn = 0;
  };

  /// `replica_engine` is the RO node's row-store engine whose table
  /// metadata (secondary indexes, row counts) and version chains are
  /// maintained alongside the page replay so the RO row engine can serve
  /// snapshot reads and index lookups.
  RedoParser(const Catalog* catalog, BufferPool* pool, ThreadPool* workers,
             int parallelism, RowStoreEngine* replica_engine);

  /// Applies one chunk of records (ascending LSN). Logical DMLs are appended
  /// to `dmls` sorted by LSN; commit/abort decisions to `decisions` in LSN
  /// order. A record that cannot be applied (unknown table, slot out of
  /// range, page read error, undecodable SMO image) fails the chunk with
  /// Corruption naming its LSN and cause. The chunk's earlier records have
  /// already advanced their pages, so the chunk must not be parsed again:
  /// the page-LSN skip would drop their DMLs.
  Status ParseChunk(std::vector<RedoRecord>& records,
                    std::vector<LogicalDml>* dmls,
                    std::vector<Decision>* decisions);

  uint64_t records_applied() const { return records_applied_.load(); }

 private:
  /// Phase-B payload computed by PreparePageRecord under a shared page
  /// latch, consumed by ApplyPreparedLocked under the exclusive one.
  struct PreparedApply {
    bool skip = false;       // page already reflects the record
    int64_t pk = 0;          // decoded key (inserts)
    std::string new_image;   // completed after-image (updates)
  };

  Status ApplyRun(const std::vector<RedoRecord*>& run,
                  std::vector<std::vector<LogicalDml>>* worker_dmls);
  /// Applies one DML page record in two page-latch scopes with the replica
  /// version install *between* them:
  ///   A. Prepare (shared page latch): read the old slot image, complete
  ///      differential updates, reconstruct the logical DML and the
  ///      ReplicaApply effect. Read-only — safe under the shared latch, and
  ///      no other worker touches this page (records are partitioned by
  ///      page id) so the peeked state cannot change before step C.
  ///   B. ApplyReplica (table latch): index/rowcount maintenance plus the
  ///      MVCC install — user DMLs enter the row's version chain *in
  ///      flight*, keyed by their TID, before the page changes. Ordering
  ///      invariant for replica row-engine readers: whenever the tree shows
  ///      an uncommitted image, its chain entry already gates it, so a
  ///      snapshot scan can never observe a transaction mid-apply. (The
  ///      table latch cannot be held across the page latch here: readers
  ///      nest table latch -> page latch, so B must sit between A and C,
  ///      not around them.)
  ///   C. Apply (exclusive page latch): perform the slot mutation and
  ///      advance the page LSN.
  Status ApplyPageRecord(const RedoRecord& rec, std::vector<LogicalDml>* out);
  Status PreparePageRecord(const RedoRecord& rec, const Schema& schema,
                           const PageRef& page, bool want_effect,
                           RowTable::ReplicaApply* effect,
                           PreparedApply* prep,
                           std::vector<LogicalDml>* out);
  Status ApplyPreparedLocked(const RedoRecord& rec, const PageRef& page,
                             PreparedApply&& prep);
  Status ApplySmo(const RedoRecord& rec);
  Status GetOrCreatePage(PageId id, TableId table_id, PageRef* page);

  const Catalog* catalog_;
  BufferPool* pool_;
  ThreadPool* workers_;
  int parallelism_;
  RowStoreEngine* replica_engine_;
  std::atomic<uint64_t> records_applied_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_REPLICATION_REDO_PARSER_H_
