#include "rowstore/engine.h"

#include <algorithm>

#include "common/clock.h"
#include "common/coding.h"

namespace imci {

RowStoreEngine::RowStoreEngine(PolarFs* fs, Catalog* catalog,
                               size_t pool_capacity)
    : fs_(fs), catalog_(catalog), pool_(fs, pool_capacity) {}

Status RowStoreEngine::CreateTable(std::shared_ptr<const Schema> schema) {
  catalog_->Register(schema);
  PageId meta_id = page_alloc_.fetch_add(1) + 1;
  auto table =
      std::make_unique<RowTable>(schema, &pool_, &page_alloc_, meta_id);
  IMCI_RETURN_NOT_OK(table->CreateEmpty());
  std::lock_guard<std::mutex> g(mu_);
  tables_[schema->table_id()] = std::move(table);
  return Status::OK();
}

Status RowStoreEngine::AttachTable(std::shared_ptr<const Schema> schema,
                                   PageId meta_page_id) {
  catalog_->Register(schema);
  auto table =
      std::make_unique<RowTable>(schema, &pool_, &page_alloc_, meta_page_id);
  // Make sure the local page allocator never collides with RW-allocated ids:
  // RO-side allocation is unused, but keep it safely high.
  PageId cur = page_alloc_.load();
  if (meta_page_id + (1ull << 20) > cur) {
    page_alloc_.store(meta_page_id + (1ull << 20));
  }
  std::lock_guard<std::mutex> g(mu_);
  tables_[schema->table_id()] = std::move(table);
  return Status::OK();
}

RowTable* RowStoreEngine::GetTable(TableId id) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : it->second.get();
}

const RowTable* RowStoreEngine::GetTable(TableId id) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<RowTable*> RowStoreEngine::AllTables() {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<RowTable*> out;
  out.reserve(tables_.size());
  for (auto& [id, table] : tables_) out.push_back(table.get());
  return out;
}

Status RowStoreEngine::CheckpointPages() {
  IMCI_RETURN_NOT_OK(pool_.FlushAll());
  std::string registry;
  {
    std::lock_guard<std::mutex> g(mu_);
    PutFixed32(&registry, static_cast<uint32_t>(tables_.size()));
    for (auto& [id, table] : tables_) {
      PutFixed32(&registry, id);
      PutFixed64(&registry, table->meta_page_id());
    }
  }
  return fs_->WriteFile("rowstore/registry", std::move(registry));
}

size_t RowStoreEngine::UndoInflight() {
  size_t undone = 0;
  for (RowTable* table : AllTables()) undone += table->RollbackInflight();
  return undone;
}

MvccStats RowStoreEngine::MvccStatsSnapshot() const {
  std::vector<const RowTable*> tables;
  {
    std::lock_guard<std::mutex> g(mu_);
    tables.reserve(tables_.size());
    for (const auto& [id, table] : tables_) tables.push_back(table.get());
  }
  MvccStats total;
  for (const RowTable* table : tables) total.Add(table->MvccStatsSnapshot());
  return total;
}

Status RowStoreEngine::LoadRegistry(
    PolarFs* fs, std::vector<std::pair<TableId, PageId>>* entries) {
  std::string data;
  IMCI_RETURN_NOT_OK(fs->ReadFile("rowstore/registry", &data));
  ByteReader r(data);
  uint32_t n;
  IMCI_RETURN_NOT_OK(r.Count(4 + 8, &n));  // table id + meta page id
  for (uint32_t i = 0; i < n; ++i) {
    auto& [id, meta] = entries->emplace_back();
    IMCI_RETURN_NOT_OK(r.U32(&id));
    IMCI_RETURN_NOT_OK(r.U64(&meta));
  }
  return Status::OK();
}

void Transaction::NoteWrite(TableId table, int64_t pk) {
  std::vector<int64_t>& pks = writes_[table];
  // Room for a typical transaction's writes to one table up front. Growing
  // from one pk would put these short-lived buffers in the small heap size
  // class the buffer pool's per-touch LRU nodes come from; interleaving the
  // two scatters those nodes, and the eviction walk over them slowed the
  // pool-bound CH-benCH mix by ~10% in measurement.
  if (pks.empty()) pks.reserve(16);
  pks.push_back(pk);
}

TransactionManager::TransactionManager(RowStoreEngine* engine,
                                       RedoWriter* redo, LockManager* locks,
                                       BinlogWriter* binlog)
    : engine_(engine), redo_(redo), locks_(locks), binlog_(binlog) {}

void TransactionManager::Begin(Transaction* txn) {
  *txn = Transaction();
  txn->tid_ = next_tid_.fetch_add(1) + 1;
}

Status TransactionManager::Ship(Transaction* txn,
                                std::span<RedoRecord> records) {
  if (txn != nullptr) {
    for (RedoRecord& r : records) {
      if (r.type == RedoType::kSmo) continue;  // SMOs stay system (TID 0)
      r.tid = txn->tid_;
      r.prev_lsn = txn->last_lsn_;
    }
  }
  // Sampled before the append, so Refusal checks this record against every
  // poison that could have cut it.
  const uint64_t poisons = redo_->poisons();
  // Non-durable: the eager append CALS depends on (§5.1).
  Lsn last;
  Status s = redo_->Append(records, &last);
  if (!s.ok()) {
    redo_->Poison(s);
    if (txn != nullptr && txn->refused_.ok()) txn->refused_ = s;
    return s;
  }
  if (txn != nullptr) {
    if (txn->last_lsn_ == 0) txn->poisons_ = poisons;
    txn->last_lsn_ = last;
  }
  return s;
}

Status TransactionManager::Refusal(Transaction* txn) {
  // A cut at or above last_lsn_ kept every record of this transaction: it
  // goes on as if no poison happened.
  if (txn->refused_.ok() && txn->last_lsn_ != 0 &&
      redo_->CutBelow(txn->last_lsn_, &txn->poisons_)) {
    txn->refused_ = Status::IOError(
        "a redo log poison cut the transaction's shipped records");
  }
  return txn->refused_;
}

Status TransactionManager::Write(Transaction* txn, RowTable* t, int64_t pk,
                                 BinlogWriter::Event::Op op, const Row* row) {
  using Op = BinlogWriter::Event::Op;
  const TableId table = t->schema().table_id();
  IMCI_RETURN_NOT_OK(Refusal(txn));
  IMCI_RETURN_NOT_OK(locks_->Lock(txn->tid_, table, pk));
  txn->locks_.emplace_back(table, pk);
  // The table runs this under its write latch, so log order always equals
  // page-modification order — the prerequisite of Phase#1's per-page
  // in-order replay.
  auto ship = [&](std::vector<RedoRecord>* redo) {
    txn->NoteWrite(table, pk);
    return Ship(txn, *redo);
  };
  std::vector<RedoRecord> redo;
  switch (op) {
    case Op::kInsert:
      IMCI_RETURN_NOT_OK(t->Insert(*row, &redo, ship, txn->tid_));
      break;
    case Op::kUpdate:
      IMCI_RETURN_NOT_OK(t->Update(pk, *row, &redo, ship, txn->tid_));
      break;
    case Op::kDelete:
      IMCI_RETURN_NOT_OK(t->Delete(pk, &redo, ship, txn->tid_));
      break;
  }
  if (binlog_enabled_ && binlog_ != nullptr) {
    std::string image;
    if (row != nullptr) RowCodec::Encode(t->schema(), *row, &image);
    txn->binlog_events_.push_back({op, table, pk, std::move(image)});
  }
  return Status::OK();
}

Status TransactionManager::Insert(Transaction* txn, TableId table,
                                  const Row& row) {
  RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  const int64_t pk = AsInt(row[t->schema().pk_col()]);
  return Write(txn, t, pk, BinlogWriter::Event::Op::kInsert, &row);
}

Status TransactionManager::Update(Transaction* txn, TableId table, int64_t pk,
                                  const Row& row) {
  RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  return Write(txn, t, pk, BinlogWriter::Event::Op::kUpdate, &row);
}

Status TransactionManager::Delete(Transaction* txn, TableId table,
                                  int64_t pk) {
  RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  return Write(txn, t, pk, BinlogWriter::Event::Op::kDelete, nullptr);
}

Status TransactionManager::GetForUpdate(Transaction* txn, TableId table,
                                        int64_t pk, Row* row) {
  RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  IMCI_RETURN_NOT_OK(locks_->Lock(txn->tid_, table, pk));
  txn->locks_.emplace_back(table, pk);
  return t->Get(pk, row);
}

Status TransactionManager::Get(TableId table, int64_t pk, Row* row) {
  return Get(OpenReadView(), table, pk, row);
}

ReadView TransactionManager::OpenReadView() {
  // The engine's shared registry samples the published point under its own
  // mutex, so a concurrent watermark computation can never exceed the view
  // we are registering.
  return engine_->row_snapshots()->OpenView(snapshot_vid_);
}

Vid TransactionManager::PruneWatermark() const {
  return engine_->row_snapshots()->Watermark(snapshot_vid_);
}

Status TransactionManager::Get(const ReadView& view, TableId table, int64_t pk,
                               Row* row) {
  const RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  return t->SnapshotGet(view.vid(), pk, row);
}

Status TransactionManager::Scan(
    const ReadView& view, TableId table,
    const std::function<bool(int64_t, const Row&)>& fn) {
  const RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  return t->SnapshotScan(view.vid(), fn);
}

Status TransactionManager::ScanRange(
    const ReadView& view, TableId table, int64_t lo, int64_t hi,
    const std::function<bool(int64_t, const Row&)>& fn) {
  const RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  return t->SnapshotScanRange(view.vid(), lo, hi, fn);
}

void TransactionManager::StampCommitLocked(Transaction* txn, Vid trim_hint) {
  // The chains only need versions a snapshot can still read: trim below the
  // oldest live view (or just below this commit when nothing older is
  // pinned) while stamping, so hot rows don't accumulate history between
  // checkpoints. `trim_hint` was computed *before* commit_mu_ was taken —
  // it can only be stale-low (new views open at or above the published
  // point), which merely trims less; computing it here would drag the
  // reader-hammered SnapshotRegistry mutex into the global commit section.
  const Vid trim = std::min(trim_hint, txn->commit_vid_ - 1);
  for (const auto& [table_id, pks] : txn->writes_) {
    RowTable* t = engine_->GetTable(table_id);
    if (t != nullptr) t->StampVersions(txn->tid_, txn->commit_vid_, pks, trim);
  }
}

void TransactionManager::PublishDurable() {
  const Lsn durable = redo_->durable_lsn();
  std::lock_guard<std::mutex> g(pub_mu_);
  Vid publish = 0;
  while (!pub_queue_.empty() && pub_queue_.front().second <= durable) {
    publish = pub_queue_.front().first;
    pub_queue_.pop_front();
  }
  // The queue is VID-ascending and snapshot_vid_ is only advanced here,
  // under pub_mu_, so the store stays monotone.
  if (publish != 0) snapshot_vid_.store(publish, std::memory_order_release);
}

void TransactionManager::DropLostPublications() {
  // A failed batch fsync poisons the log: durable_lsn() is frozen at the
  // pre-batch watermark and further appends are refused until reopen, so
  // the watermark cannot race past a trimmed LSN while we drop. Every
  // committer in the failed batch calls this before surfacing its error —
  // the queue is clean before any reopen can append new records onto the
  // trimmed LSN range.
  const Lsn durable = redo_->durable_lsn();
  std::lock_guard<std::mutex> g(pub_mu_);
  while (!pub_queue_.empty() && pub_queue_.back().second > durable) {
    pub_queue_.pop_back();
  }
}

void TransactionManager::RetractLostCommit(Transaction* txn) {
  for (const auto& [table_id, pks] : txn->writes_) {
    RowTable* t = engine_->GetTable(table_id);
    if (t != nullptr) {
      (void)t->UndoWrites(txn->tid_, txn->commit_vid_, pks, nullptr);
    }
  }
}

Status TransactionManager::Commit(Transaction* txn) {
  if (txn->finished_) return Status::InvalidArgument("finished txn");
  if (Status refused = Refusal(txn); !refused.ok()) {
    // A reopened log has trimmed records of this transaction, so a commit
    // record now would commit writes the log does not hold.
    (void)Rollback(txn);
    return refused;
  }
  RedoRecord commit;
  commit.type = RedoType::kCommit;
  commit.tid = txn->tid_;
  commit.prev_lsn = txn->last_lsn_;
  Lsn binlog_lsn = 0;
  Status enqueued;  // the redo commit record's append
  Status s;         // the first failure after it
  const Vid trim_hint =
      txn->writes_.empty() ? 0 : engine_->row_snapshots()->hint();
  {
    // Short critical section: VID assignment and the commit-record
    // *enqueue* happen under one mutex so that commit-VID order equals
    // commit-record LSN order — the property Phase#2 relies on when
    // replaying transactions in commit order (§5.4). The append is
    // write-through but non-durable; the fsync wait happens below, outside
    // the mutex, so concurrent commits form one group-commit batch instead
    // of serializing a flush each.
    std::lock_guard<std::mutex> g(commit_mu_);
    txn->commit_vid_ = next_vid_.fetch_add(1) + 1;
    commit.commit_vid = txn->commit_vid_;
    commit.commit_ts_us = NowMicros();
    enqueued = redo_->Append({&commit, 1}, &txn->commit_lsn_);
    if (enqueued.ok()) {
      if (binlog_enabled_ && binlog_ != nullptr) {
        // MySQL's ordered group commit serializes the binlog *write* with
        // the engine commit (XA between binlog and redo). The strawman's
        // extra flush still sits on the commit path — the perturbation
        // Fig. 11 measures — but, like the redo flush, it is paid once per
        // batch. A refused binlog record lands after a redo commit record
        // replicas would act on: poison the redo log, which trims that
        // record unless a batch already made it durable, and fail below
        // like a refused fsync.
        s = binlog_->EnqueueTxn(txn->tid_, txn->commit_vid_,
                                commit.commit_ts_us, txn->binlog_events_,
                                &binlog_lsn);
        if (!s.ok()) redo_->Poison(s);
      }
      // Stamp this transaction's row versions with its commit VID, then
      // queue (vid, lsn) for publication — in that order, so a reader whose
      // snapshot covers this commit always finds it stamped. Queueing under
      // commit_mu_ keeps the queue in VID (≡ LSN) order; the snapshot point
      // advances in PublishDurable() once the group-commit watermark covers
      // the commit record, so readers never see a commit that is not
      // durable.
      StampCommitLocked(txn, trim_hint);
      std::lock_guard<std::mutex> pg(pub_mu_);
      pub_queue_.emplace_back(txn->commit_vid_, txn->commit_lsn_);
    }
  }
  if (!enqueued.ok()) {
    // The refused commit record wrote nothing and nothing is stamped or
    // queued: an ordinary rollback restores the writes, so a retry of the
    // same rows finds them free.
    (void)Rollback(txn);
    return enqueued;
  }
  txn->finished_ = true;
  // Group commit: block until a leader's batch fsync covers the commit
  // record (and, in binlog mode, the logical record). Locks are released
  // only after durability so no other transaction builds on a commit that
  // could still be lost.
  if (s.ok()) s = redo_->SyncTo(txn->commit_lsn_);
  if (s.ok() && binlog_lsn != 0) s = binlog_->SyncTo(binlog_lsn);
  if (!s.ok()) {
    // The commit failed after its record entered the redo log: a batch
    // fsync or the binlog record was refused, and the redo log is poisoned
    // (its un-fsynced tail — this commit record included, unless a batch
    // already covered it — is trimmed). The queued publications the trim
    // orphaned are dropped — the lost commits never become reader-visible
    // at all — and the stamped row versions are retracted under the
    // still-held locks: without the retract, a later commit publishing a
    // higher VID (possible once the log reopens) would expose this
    // commit's stamped versions even though its record is gone. The
    // retract is gated on the *redo* watermark: when the redo fsync landed
    // and only the binlog failed, the commit is durable-but-ambiguous — it
    // stays queued and publishes once a later batch advances the watermark
    // past it, which recovery agrees with.
    if (txn->commit_lsn_ > redo_->durable_lsn()) RetractLostCommit(txn);
    DropLostPublications();
    ReleaseLocks(txn);
    return s;
  }
  // Publish before releasing the row locks: a transaction that acquires a
  // lock this commit held must find the commit already visible.
  PublishDurable();
  ReleaseLocks(txn);
  commits_.fetch_add(1, std::memory_order_relaxed);
  // Opportunistic trim-hint refresh, off the critical path: a write-only
  // workload never opens read views, so closing views alone would leave the
  // hint pinned low and chains would only shrink at checkpoints. try_lock
  // inside — losing the race to readers just means the next commit
  // refreshes it.
  engine_->row_snapshots()->TryRefresh(snapshot_vid_);
  return Status::OK();
}

Status TransactionManager::Rollback(Transaction* txn) {
  if (txn->finished_) return Status::InvalidArgument("finished txn");
  txn->finished_ = true;
  // Restore every written row from its version chain, shipping the page
  // changes as compensating *system* records (TID 0) under each table's
  // latch, like forward operations, to preserve per-page log order: replica
  // pages must converge, but Phase#1 must not surface these as user DMLs —
  // the aborted transaction's buffered DMLs are simply discarded when the
  // abort record arrives (§5.1). Snapshot readers skipped the in-flight
  // versions all along, so they never saw any of the rolled-back state.
  // A refused ship still restores memory; the log is poisoned by then.
  // After a refused ship of this transaction's own, or a poison that cut a
  // shipped record, nothing is shipped even if the log has reopened since:
  // the records the compensation would undo were trimmed, and on a replica
  // it would hit rows they never touched.
  const Status refused = Refusal(txn);
  auto ship = [&](std::vector<RedoRecord>* redo) {
    return refused.ok() ? Ship(nullptr, *redo) : refused;
  };
  Status s;
  for (const auto& [table_id, pks] : txn->writes_) {
    RowTable* t = engine_->GetTable(table_id);
    if (t == nullptr) continue;
    Status undone = t->UndoWrites(txn->tid_, 0, pks, ship);
    if (s.ok()) s = undone;
  }
  RedoRecord abort;
  abort.type = RedoType::kAbort;
  Status aborted = refused.ok() ? Ship(txn, {&abort, 1}) : refused;
  if (s.ok()) s = aborted;
  ReleaseLocks(txn);
  return s;
}

void TransactionManager::ReleaseLocks(Transaction* txn) {
  // Strict 2PL: everything the transaction holds goes at commit/rollback,
  // released from the txn's own acquisition list.
  for (auto& [table, pk] : txn->locks_) locks_->Unlock(txn->tid_, table, pk);
  txn->locks_.clear();
}

}  // namespace imci
