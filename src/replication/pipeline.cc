#include "replication/pipeline.h"

#include <algorithm>
#include <map>
#include <set>

#include "archive/archive.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/fault.h"

namespace imci {

ReplicationPipeline::ReplicationPipeline(PolarFs* fs, const Catalog* catalog,
                                         BufferPool* ro_pool, ImciStore* imci,
                                         ThreadPool* pool,
                                         ReplicationOptions options,
                                         std::string name,
                                         RowStoreEngine* replica_engine)
    : fs_(fs),
      catalog_(catalog),
      ro_pool_(ro_pool),
      imci_(imci),
      pool_(pool),
      replica_engine_(replica_engine),
      options_(options),
      name_(std::move(name)),
      redo_log_(fs->log("redo")),
      parser_(catalog, ro_pool, pool, options.parse_parallelism,
              replica_engine),
      reader_(redo_log_) {}

ReplicationPipeline::~ReplicationPipeline() { Stop(); }

void ReplicationPipeline::Seed(Lsn lsn, Vid vid) {
  read_lsn_.store(lsn, std::memory_order_release);
  applied_lsn_.store(lsn, std::memory_order_release);
  applied_vid_.store(vid, std::memory_order_release);
  seed_vid_ = vid;
}

void ReplicationPipeline::Start() {
  {
    std::lock_guard<std::mutex> g(health_mu_);
    wedge_reason_ = Status::OK();
  }
  wedged_.store(false, std::memory_order_release);
  heartbeat_us_.store(NowMicros(), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  coordinator_ = std::thread([this] { CoordinatorLoop(); });
}

void ReplicationPipeline::Stop() {
  // No exchange guard: a wedged coordinator already cleared running_ on its
  // way out, and the thread must still be joined.
  running_.store(false, std::memory_order_release);
  NotifyWaiters();
  if (coordinator_.joinable()) coordinator_.join();
}

void ReplicationPipeline::NotifyWaiters() {
  // Taking the mutex orders this wake after any Await that found its
  // condition false but has not blocked yet.
  { std::lock_guard<std::mutex> g(progress_mu_); }
  progress_cv_.notify_all();
}

namespace {
/// Row groups whose visible-row fraction drops below this are compacted
/// during maintenance.
constexpr double kCompactionThreshold = 0.5;

/// Worth retrying: the storage layer may heal (latency spike, transient
/// EIO, contention). Corruption is not — re-reading returns the same torn
/// bytes, so the pipeline wedges immediately instead of spinning on them.
bool IsTransient(const Status& s) { return s.IsIOError() || s.IsBusy(); }
}  // namespace

void ReplicationPipeline::CoordinatorLoop() {
  // Tag the thread for targeted fault injection: chaos tests wedge exactly
  // one node by arming a fault point with scope == this node's name.
  fault::ScopedContext scope(name_);
  int failures = 0;
  uint64_t backoff_us = options_.retry_backoff_us;
  while (running_.load(std::memory_order_acquire)) {
    heartbeat_us_.store(NowMicros(), std::memory_order_release);
    redo_log_->WaitFor(read_lsn_.load(std::memory_order_acquire),
                         options_.poll_timeout_us);
    Status s = PollOnce();
    if (s.ok()) {
      failures = 0;
      backoff_us = options_.retry_backoff_us;
    } else if (IsTransient(s) && ++failures <= options_.max_transient_retries) {
      // Bounded retry with exponential backoff; PollOnce preserved whatever
      // partial progress it made, so the retry resumes past it.
      transient_retries_.fetch_add(1, std::memory_order_relaxed);
      YieldFor(backoff_us);
      backoff_us = std::min(backoff_us * 2, options_.retry_backoff_cap_us);
      continue;
    } else {
      Wedge(std::move(s));
      return;
    }
    const uint64_t ckpt = checkpoint_request_.exchange(0);
    if (ckpt != 0) {
      if (Status cs = TakeCheckpoint(ckpt); !cs.ok()) {
        // A failed checkpoint leaves replication healthy (the previous
        // checkpoint still anchors boots) but must stay visible.
        std::lock_guard<std::mutex> g(health_mu_);
        last_checkpoint_error_ = std::move(cs);
      }
    }
  }
}

void ReplicationPipeline::Wedge(Status reason) {
  {
    std::lock_guard<std::mutex> g(health_mu_);
    wedge_reason_ = std::move(reason);
  }
  wedged_.store(true, std::memory_order_release);
  // The coordinator exits right after; Stop() still joins the thread.
  running_.store(false, std::memory_order_release);
  NotifyWaiters();
}

Status ReplicationPipeline::wedge_reason() const {
  std::lock_guard<std::mutex> g(health_mu_);
  return wedge_reason_;
}

Status ReplicationPipeline::last_checkpoint_error() const {
  std::lock_guard<std::mutex> g(health_mu_);
  return last_checkpoint_error_;
}

uint64_t ReplicationPipeline::LsnDelay() const {
  // Backlog is measured against the durable watermark, not the written
  // tail: the pipeline never consumes past it, so counting the
  // not-yet-fsynced tail would report "lag" no amount of applying can
  // clear (and could trip the health monitor's lag eviction on a node
  // that is fully caught up).
  const Lsn durable = redo_log_->durable_lsn();
  const Lsn read = read_lsn_.load(std::memory_order_acquire);
  return durable > read ? durable - read : 0;
}

std::string ReplicationPipeline::SerializeInflight() const {
  // Layout: u32 ntxns, then per transaction: tid, first_lsn, pre_committed,
  // the buffered DMLs (rows encoded with the table's RowCodec; deletes have
  // an empty row), the pre-committed residue ops, and the committed
  // pre-images of the rows the transaction touched. The pre-images are what
  // lets a booting node gate the flushed pages' mid-transaction effects:
  // the checkpoint's pages carry this transaction's *after*-images, and the
  // replayed log starts past the records that wrote them, so the committed
  // state of those rows exists nowhere else.
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(txn_buffers_.size()));
  for (const auto& [tid, buf] : txn_buffers_) {
    PutFixed64(&out, buf->tid);
    PutFixed64(&out, buf->first_lsn);
    out.push_back(buf->pre_committed ? 1 : 0);
    PutFixed32(&out, static_cast<uint32_t>(buf->dmls.size()));
    for (const LogicalDml& dml : buf->dmls) {
      out.push_back(static_cast<char>(dml.op));
      PutFixed32(&out, dml.table_id);
      PutFixed64(&out, dml.lsn);
      PutFixed64(&out, static_cast<uint64_t>(dml.pk));
      std::string row;
      if (!dml.row.empty()) {
        auto schema = catalog_->Get(dml.table_id);
        if (schema) RowCodec::Encode(*schema, dml.row, &row);
      }
      PutLengthPrefixed(&out, row);
    }
    PutFixed32(&out, static_cast<uint32_t>(buf->pre_ops.size()));
    for (const TxnBuffer::PreOp& op : buf->pre_ops) {
      out.push_back(op.is_delete ? 1 : 0);
      PutFixed32(&out, op.table_id);
      PutFixed64(&out, static_cast<uint64_t>(op.pk));
      PutFixed64(&out, op.rid);
    }
    std::set<std::pair<TableId, int64_t>> touched;
    for (const LogicalDml& dml : buf->dmls) {
      touched.emplace(dml.table_id, dml.pk);
    }
    for (const TxnBuffer::PreOp& op : buf->pre_ops) {
      touched.emplace(op.table_id, op.pk);
    }
    PutFixed32(&out, static_cast<uint32_t>(touched.size()));
    for (const auto& [table_id, pk] : touched) {
      PutFixed32(&out, table_id);
      PutFixed64(&out, static_cast<uint64_t>(pk));
      std::string image;
      RowTable* t = replica_engine_->GetTable(table_id);
      const bool has_pre = t != nullptr && t->CommittedImage(pk, &image);
      out.push_back(has_pre ? 1 : 0);
      PutLengthPrefixed(&out, image);
    }
  }
  return out;
}

Status ReplicationPipeline::RestoreInflight(const std::string& blob) {
  if (blob.empty()) return Status::OK();
  // Smallest encodings, for the Counts that size allocations: a DML with
  // an empty row, and a pre-op.
  constexpr size_t kDmlBytes = 1 + 4 + 8 + 8 + 4;
  constexpr size_t kPreOpBytes = 1 + 4 + 8 + 8;
  ByteReader r(blob);
  uint32_t ntxns;
  IMCI_RETURN_NOT_OK(r.U32(&ntxns));
  for (uint32_t t = 0; t < ntxns; ++t) {
    auto buf = std::make_shared<TxnBuffer>();
    uint8_t pre_committed;
    uint32_t ndmls;
    IMCI_RETURN_NOT_OK(r.U64(&buf->tid));
    IMCI_RETURN_NOT_OK(r.U64(&buf->first_lsn));
    IMCI_RETURN_NOT_OK(r.U8(&pre_committed));
    IMCI_RETURN_NOT_OK(r.Count(kDmlBytes, &ndmls));
    buf->pre_committed = pre_committed != 0;
    buf->dmls.reserve(ndmls);
    for (uint32_t i = 0; i < ndmls; ++i) {
      LogicalDml& dml = buf->dmls.emplace_back();
      uint8_t op;
      IMCI_RETURN_NOT_OK(r.U8(&op));
      if (op > static_cast<uint8_t>(LogicalDml::Op::kUpdate)) {
        return Status::Corruption("inflight dml op");
      }
      dml.op = static_cast<LogicalDml::Op>(op);
      dml.tid = buf->tid;
      std::string_view row;
      IMCI_RETURN_NOT_OK(r.U32(&dml.table_id));
      IMCI_RETURN_NOT_OK(r.U64(&dml.lsn));
      IMCI_RETURN_NOT_OK(r.I64(&dml.pk));
      IMCI_RETURN_NOT_OK(r.Str(&row));
      if (!row.empty()) {
        auto schema = catalog_->Get(dml.table_id);
        if (!schema) return Status::Corruption("inflight table");
        IMCI_RETURN_NOT_OK(
            RowCodec::Decode(*schema, row.data(), row.size(), &dml.row));
      }
    }
    uint32_t npre;
    IMCI_RETURN_NOT_OK(r.Count(kPreOpBytes, &npre));
    buf->pre_ops.resize(npre);
    for (TxnBuffer::PreOp& op : buf->pre_ops) {
      uint8_t is_delete;
      IMCI_RETURN_NOT_OK(r.U8(&is_delete));
      op.is_delete = is_delete != 0;
      IMCI_RETURN_NOT_OK(r.U32(&op.table_id));
      IMCI_RETURN_NOT_OK(r.I64(&op.pk));
      IMCI_RETURN_NOT_OK(r.U64(&op.rid));
    }
    uint32_t ntouched;
    IMCI_RETURN_NOT_OK(r.U32(&ntouched));
    for (uint32_t i = 0; i < ntouched; ++i) {
      TableId table_id;
      int64_t pk;
      uint8_t has_pre;
      std::string_view image;
      IMCI_RETURN_NOT_OK(r.U32(&table_id));
      IMCI_RETURN_NOT_OK(r.I64(&pk));
      IMCI_RETURN_NOT_OK(r.U8(&has_pre));
      IMCI_RETURN_NOT_OK(r.Str(&image));
      // Gate the flushed pages' mid-transaction effects: re-create the
      // transaction's version chain with the checkpoint-carried committed
      // pre-image as its base. Must run before replay starts — a later DML
      // on the same row would otherwise seed the chain base from the dirty
      // tree image.
      RowTable* t = replica_engine_->GetTable(table_id);
      if (t != nullptr) {
        t->InstallBootInflight(buf->tid, pk, has_pre != 0,
                               std::string(image));
      }
    }
    txn_buffers_[buf->tid] = std::move(buf);
  }
  return r.done() ? Status::OK() : Status::Corruption("inflight trailer");
}

Status ReplicationPipeline::PollOnce() {
  IMCI_RETURN_NOT_OK(ReplayChunk());
  if (++polls_since_maintenance_ >= options_.maintenance_interval) {
    polls_since_maintenance_ = 0;
    RunMaintenance();
  }
  return Status::OK();
}

Status ReplicationPipeline::ReplayChunk() {
  const Lsn from = read_lsn_.load(std::memory_order_acquire);
  // Consume only the durable prefix of the redo log. Written-but-unfsynced
  // records are retractable: a failed batch fsync trims them, and a replica
  // that already applied one would expose a commit the log no longer
  // contains — with its cursor parked over LSNs that post-reopen appends
  // reuse for different records. CALS still ships commit-ahead: a DML record
  // becomes consumable as soon as any batch fsync covers it, long before its
  // transaction decides.
  const Lsn durable = redo_log_->durable_lsn();
  if (durable <= from) return Status::OK();
  std::vector<RedoRecord> records;
  Status read_error;
  const Lsn to =
      reader_.Read(from, std::min<Lsn>(from + options_.chunk_records, durable),
                   &records, &read_error);
  // Nothing consumed: surface the read failure (OK when merely idle).
  if (to == from) return read_error;

  // Phase#1: parallel physical replay + logical DML reconstruction.
  std::vector<LogicalDml> dmls;
  std::vector<RedoParser::Decision> decisions;
  IMCI_RETURN_NOT_OK(parser_.ParseChunk(records, &dmls, &decisions));

  // Deliver DMLs into per-transaction buffers (CALS: this happens without
  // waiting for the commit decision).
  DeliverDmls(std::move(dmls));

  // Turn decisions into a Phase#2 batch, in commit (LSN) order.
  std::vector<CommittedTxn> batch;
  if (!options_.commit_ahead && !delayed_.empty()) {
    // CALS-off emulation: transactions committed in the previous poll are
    // delivered now (ship-at-commit adds one propagation round).
    batch = std::move(delayed_);
    delayed_.clear();
  }
  std::vector<CommittedTxn> fresh;
  for (const RedoParser::Decision& d : decisions) {
    auto it = txn_buffers_.find(d.tid);
    std::shared_ptr<TxnBuffer> buf;
    if (it != txn_buffers_.end()) {
      buf = it->second;
      txn_buffers_.erase(it);
    } else {
      buf = std::make_shared<TxnBuffer>();
      buf->tid = d.tid;
    }
    if (!d.commit) {
      // Abort: free the buffer; pre-committed residue stays invisible and is
      // reclaimed by compaction (§5.5). The row replica's in-flight versions
      // go too — the compensation records (which precede the abort record in
      // the log, hence already applied) restored the pages.
      DropReplicaVersions(*buf);
      continue;
    }
    if (d.vid <= seed_vid_) continue;  // in the checkpoint
    CommittedTxn txn;
    txn.buffer = std::move(buf);
    txn.vid = d.vid;
    txn.commit_ts_us = d.commit_ts_us;
    txn.lsn = d.lsn;
    fresh.push_back(std::move(txn));
  }
  if (options_.commit_ahead) {
    for (auto& t : fresh) batch.push_back(std::move(t));
  } else {
    for (auto& t : fresh) delayed_.push_back(std::move(t));
  }
  if (!batch.empty()) ApplyBatch(batch);
  // Publish the consumed position only after the batch landed, so
  // "read_lsn >= X" implies everything committed at or before X is visible.
  read_lsn_.store(to, std::memory_order_release);
  NotifyWaiters();
  // A failure mid-scan: what was delivered is applied and the cursor kept,
  // so a retry resumes exactly past the progress made.
  return read_error;
}

Status ReplicationPipeline::CatchUp(Lsn target_lsn) {
  while (read_lsn_.load(std::memory_order_acquire) < target_lsn) {
    IMCI_RETURN_NOT_OK(PollOnce());
  }
  return Status::OK();
}

void ReplicationPipeline::DeliverDmls(std::vector<LogicalDml>&& dmls) {
  for (LogicalDml& dml : dmls) {
    auto& buf = txn_buffers_[dml.tid];
    if (!buf) {
      buf = std::make_shared<TxnBuffer>();
      buf->tid = dml.tid;
    }
    if (buf->first_lsn == 0) buf->first_lsn = dml.lsn;
    buf->dmls.push_back(std::move(dml));
    MaybePreCommit(buf);
  }
}

void ReplicationPipeline::MaybePreCommit(
    const std::shared_ptr<TxnBuffer>& buf) {
  if (buf->dmls.size() < options_.large_txn_dml_threshold) return;
  // §5.5: write the buffered updates into Partial Packs with invalid VIDs
  // (invisible), remember only (pk, rid) residue, and free the DML memory.
  for (const LogicalDml& dml : buf->dmls) {
    ColumnIndex* index = imci_->GetIndex(dml.table_id);
    if (index == nullptr) continue;
    switch (dml.op) {
      case LogicalDml::Op::kInsert: {
        const Rid rid = index->PreAllocate(1);
        // In-memory pre-write into a just-allocated rid cannot fail; the
        // rectify at commit re-validates the row anyway.
        (void)index->PreWrite(rid, dml.row);
        buf->pre_ops.push_back({false, dml.table_id, dml.pk, rid});
        break;
      }
      case LogicalDml::Op::kDelete:
        buf->pre_ops.push_back({true, dml.table_id, dml.pk, kInvalidRid});
        break;
      case LogicalDml::Op::kUpdate: {
        buf->pre_ops.push_back({true, dml.table_id, dml.pk, kInvalidRid});
        const Rid rid = index->PreAllocate(1);
        (void)index->PreWrite(rid, dml.row);
        buf->pre_ops.push_back({false, dml.table_id, dml.pk, rid});
        break;
      }
    }
  }
  buf->dmls.clear();
  buf->dmls.shrink_to_fit();
  if (!buf->pre_committed) {
    buf->pre_committed = true;
    precommitted_txns_.fetch_add(1, std::memory_order_relaxed);
  }
}

namespace {
/// The rows a transaction buffer touched, grouped by table (pre-committed
/// large transactions keep their rows in pre_ops after the DML memory is
/// freed; both sources are walked).
std::map<TableId, std::vector<int64_t>> PksByTable(const TxnBuffer& buf) {
  std::map<TableId, std::vector<int64_t>> by_table;
  for (const LogicalDml& dml : buf.dmls) {
    by_table[dml.table_id].push_back(dml.pk);
  }
  for (const TxnBuffer::PreOp& op : buf.pre_ops) {
    by_table[op.table_id].push_back(op.pk);
  }
  return by_table;
}
}  // namespace

void ReplicationPipeline::StampReplicaVersions(const TxnBuffer& buf,
                                               Vid vid) {
  // Trim opportunistically like the RW commit path: the registry hint is
  // only ever stale-low (row-engine readers pin at or above it), which
  // merely trims less.
  const Vid trim =
      std::min(replica_engine_->row_snapshots()->hint(), vid - 1);
  for (const auto& [table_id, pks] : PksByTable(buf)) {
    RowTable* t = replica_engine_->GetTable(table_id);
    if (t != nullptr) t->StampVersions(buf.tid, vid, pks, trim);
  }
}

void ReplicationPipeline::DropReplicaVersions(const TxnBuffer& buf) {
  for (const auto& [table_id, pks] : PksByTable(buf)) {
    RowTable* t = replica_engine_->GetTable(table_id);
    if (t != nullptr) t->AbortVersions(buf.tid, pks);
  }
}

void ReplicationPipeline::ApplyBatch(std::vector<CommittedTxn>& batch) {
  // Commit decision for the row replica first: stamp every transaction's
  // in-flight versions with its commit VID *before* applied_vid_ advances
  // below, so a row-engine reader pinned at the new applied point always
  // resolves the batch's transactions as committed — and one pinned below
  // it still cannot see them (all-or-nothing at every snapshot).
  for (const CommittedTxn& txn : batch) {
    StampReplicaVersions(*txn.buffer, txn.vid);
  }
  // Phase#2 (§5.4): row-grained conflict-free dispatch. Transactions are
  // walked in commit order; every op lands on Hash(table, PK) mod N, so all
  // modifications of one row hit the same worker in commit order.
  const int n = std::max(1, options_.apply_parallelism);
  std::vector<std::vector<ApplyOp>> shards(n);
  auto shard_for = [&](TableId t, int64_t pk) -> std::vector<ApplyOp>& {
    return shards[Hash64((static_cast<uint64_t>(t) << 48) ^
                         static_cast<uint64_t>(pk)) %
                  n];
  };
  for (CommittedTxn& txn : batch) {
    TxnBuffer* buf = txn.buffer.get();
    for (const TxnBuffer::PreOp& op : buf->pre_ops) {
      ApplyOp a;
      a.kind = op.is_delete ? ApplyOp::Kind::kDelete : ApplyOp::Kind::kRectify;
      a.table_id = op.table_id;
      a.pk = op.pk;
      a.rid = op.rid;
      a.vid = txn.vid;
      shard_for(op.table_id, op.pk).push_back(std::move(a));
    }
    for (LogicalDml& dml : buf->dmls) {
      ApplyOp a;
      switch (dml.op) {
        case LogicalDml::Op::kInsert: a.kind = ApplyOp::Kind::kInsert; break;
        case LogicalDml::Op::kDelete: a.kind = ApplyOp::Kind::kDelete; break;
        case LogicalDml::Op::kUpdate: a.kind = ApplyOp::Kind::kUpdate; break;
      }
      a.table_id = dml.table_id;
      a.pk = dml.pk;
      a.vid = txn.vid;
      a.row = std::move(dml.row);
      shard_for(dml.table_id, dml.pk).push_back(std::move(a));
    }
  }
  uint64_t ops = 0;
  for (auto& s : shards) ops += s.size();
  ParallelFor(pool_, n, [&](int w) {
    for (ApplyOp& op : shards[w]) {
      ColumnIndex* index = imci_->GetIndex(op.table_id);
      if (index == nullptr) continue;
      // Phase#2 ops mutate in-memory column state only (no storage I/O to
      // fault); a NotFound from Delete/Update is the replay-vs-checkpoint
      // overlap case and is tolerated by design.
      switch (op.kind) {
        case ApplyOp::Kind::kInsert:
          (void)index->Insert(op.row, op.vid);
          break;
        case ApplyOp::Kind::kDelete:
          (void)index->Delete(op.pk, op.vid);
          break;
        case ApplyOp::Kind::kUpdate:
          (void)index->Update(op.row, op.vid);
          break;
        case ApplyOp::Kind::kRectify:
          (void)index->RectifyInsert(op.rid, op.pk, op.vid);
          break;
      }
    }
  });
  applied_ops_.fetch_add(ops, std::memory_order_relaxed);
  // Batch commit: advance the node's read view only after every op of every
  // transaction in the batch landed, so readers see transactions atomically.
  const CommittedTxn& last = batch.back();
  applied_vid_.store(last.vid, std::memory_order_release);
  applied_lsn_.store(last.lsn, std::memory_order_release);
  committed_txns_.fetch_add(batch.size(), std::memory_order_relaxed);
  const uint64_t now = NowMicros();
  for (const CommittedTxn& txn : batch) {
    if (txn.commit_ts_us != 0 && now > txn.commit_ts_us) {
      vd_.Record(now - txn.commit_ts_us);
    }
  }
}

void ReplicationPipeline::RunMaintenance() {
  const Vid applied = applied_vid_.load(std::memory_order_acquire);
  // One watermark per pass, with the RW's checkpoint-pruning discipline:
  // release nothing at or above the oldest snapshot registered on this node
  // — row and column reads and fragment pins alike — capped by the applied
  // commit point. It bounds the replica's version prune and the column
  // indexes' insert-VID maps and retired groups.
  const Vid wm = replica_engine_->row_snapshots()->Watermark(applied_vid_);
  for (RowTable* t : replica_engine_->AllTables()) t->PruneVersions(wm);
  for (ColumnIndex* index : imci_->All()) {
    index->DropInsertVidMaps(wm);
    if (options_.enable_compaction) {
      for (size_t gid :
           index->FindUnderflowGroups(applied, kCompactionThreshold)) {
        uint32_t moved = 0;
        if (index->CompactGroup(gid, applied, &moved).ok()) {
          compactions_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    index->ReclaimRetired(wm);
  }
}

Status ReplicationPipeline::TakeCheckpoint(uint64_t ckpt_id) {
  // Quiesced at a batch boundary: applied state == applied_vid exactly.
  // The page flush below stamps replica pages with LSNs up to read_lsn, so
  // a booting node cannot re-reconstruct DMLs from records at or below it
  // (the parser's page-LSN skip) — in-flight transactions' buffered DMLs
  // must travel with the checkpoint instead, and replay starts at read_lsn.
  IMCI_RETURN_NOT_OK(ro_pool_->FlushAllResident());
  const Vid csn = applied_vid_.load(std::memory_order_acquire);
  const Lsn start_lsn = read_lsn_.load(std::memory_order_acquire);
  IMCI_RETURN_NOT_OK(ImciCheckpoint::WriteSnapshot(
      *imci_, csn, start_lsn, fs_, ckpt_id, SerializeInflight()));
  // Register the checkpoint as a PITR restore anchor: the pages just
  // flushed + this checkpoint directory are exactly the state replay from
  // start_lsn resumes from (Cluster::RestoreToLsn).
  return fs_->archive()->snapshots()->Register(ckpt_id, csn, start_lsn);
}

void ReplicationPipeline::RequestCheckpoint(uint64_t ckpt_id) {
  checkpoint_request_.store(ckpt_id, std::memory_order_release);
}

}  // namespace imci
