#include "rowstore/table.h"

#include <algorithm>
#include <limits>

namespace imci {

RowTable::RowTable(std::shared_ptr<const Schema> schema, BufferPool* pool,
                   std::atomic<PageId>* page_alloc, PageId meta_page_id)
    : schema_(std::move(schema)),
      btree_(pool, page_alloc, schema_->table_id(), meta_page_id) {
  for (int col : schema_->secondary_index_cols()) {
    sec_index_[col];  // create empty index
  }
}

Status RowTable::CreateEmpty() { return btree_.CreateEmpty(); }

Status RowTable::Insert(const Row& row, std::vector<RedoRecord>* redo,
                        const RedoShipFn& ship, Tid writer) {
  const int64_t pk = AsInt(row[schema_->pk_col()]);
  std::string image;
  RowCodec::Encode(*schema_, row, &image);
  std::unique_lock<WriterPrioritySharedMutex> g(latch_);
  IMCI_RETURN_NOT_OK(btree_.Insert(pk, image, redo));
  IndexInsert(row, pk);
  row_count_.fetch_add(1, std::memory_order_relaxed);
  if (writer != 0) {
    // No base seed: before this insert the key's visible history is either
    // empty or already in the chain (committed delete).
    versions_.Install(pk, writer, /*deleted=*/false, image, nullptr);
  }
  // Under the latch: log order == page-op order.
  return ship ? ship(redo) : Status::OK();
}

Status RowTable::Update(int64_t pk, const Row& new_row,
                        std::vector<RedoRecord>* redo,
                        const RedoShipFn& ship, Tid writer) {
  std::string new_image;
  RowCodec::Encode(*schema_, new_row, &new_image);
  std::unique_lock<WriterPrioritySharedMutex> g(latch_);
  std::string old_image;
  IMCI_RETURN_NOT_OK(btree_.Update(pk, new_image, &old_image, redo));
  Row old_row;
  IMCI_RETURN_NOT_OK(
      RowCodec::Decode(*schema_, old_image.data(), old_image.size(), &old_row));
  IndexRemove(old_row, pk);
  IndexInsert(new_row, pk);
  if (writer != 0) {
    versions_.Install(pk, writer, /*deleted=*/false, new_image, &old_image);
  }
  return ship ? ship(redo) : Status::OK();
}

Status RowTable::Delete(int64_t pk, std::vector<RedoRecord>* redo,
                        const RedoShipFn& ship, Tid writer) {
  std::unique_lock<WriterPrioritySharedMutex> g(latch_);
  std::string old_image;
  IMCI_RETURN_NOT_OK(btree_.Delete(pk, &old_image, redo));
  Row old_row;
  IMCI_RETURN_NOT_OK(
      RowCodec::Decode(*schema_, old_image.data(), old_image.size(), &old_row));
  IndexRemove(old_row, pk);
  row_count_.fetch_sub(1, std::memory_order_relaxed);
  if (writer != 0) {
    versions_.Install(pk, writer, /*deleted=*/true, std::string_view(),
                      &old_image);
  }
  return ship ? ship(redo) : Status::OK();
}

Status RowTable::Get(int64_t pk, Row* row) const {
  std::shared_lock<WriterPrioritySharedMutex> g(latch_);
  std::string image;
  IMCI_RETURN_NOT_OK(btree_.Lookup(pk, &image));
  return RowCodec::Decode(*schema_, image.data(), image.size(), row);
}

bool RowTable::CommittedImage(int64_t pk, std::string* image) const {
  std::shared_lock<WriterPrioritySharedMutex> g(latch_);
  if (const RowVersion* head = versions_.Head(pk); head != nullptr) {
    const RowVersion* v = VersionChains::ResolveChain(head, kMaxVid);
    if (v == nullptr || v->deleted()) return false;
    image->assign(v->image());
    return true;
  }
  // Chainless row: the tree image is committed (pruning invariant).
  return btree_.Lookup(pk, image).ok();
}

void RowTable::InstallBootInflight(Tid tid, int64_t pk, bool has_pre,
                                   const std::string& pre_image) {
  std::unique_lock<WriterPrioritySharedMutex> g(latch_);
  // The tree (restored from the checkpoint's pages) holds the transaction's
  // after-image — or lost the row to its in-flight delete. Re-create the
  // chain the crashed node had: tree state as the in-flight version, the
  // checkpoint-carried committed pre-image as the base.
  std::string cur;
  const bool in_tree = btree_.Lookup(pk, &cur).ok();
  versions_.Install(pk, tid, /*deleted=*/!in_tree, cur,
                    has_pre ? &pre_image : nullptr);
}

Status RowTable::SnapshotGet(Vid s, int64_t pk, Row* row) const {
  // Guard first, then harvest: pointers loaded from the chain map after the
  // guard opened stay dereferenceable until it closes, whatever concurrent
  // maintenance unlinks or retires.
  ArenaReadGuard guard;
  const RowVersion* head = nullptr;
  {
    std::shared_lock<WriterPrioritySharedMutex> g(latch_);
    head = versions_.Head(pk);
    if (head == nullptr) {
      // Chainless row: the tree image is the visible version (pruning
      // invariant); tree pages are read under the latch as always.
      std::string image;
      IMCI_RETURN_NOT_OK(btree_.Lookup(pk, &image));
      return RowCodec::Decode(*schema_, image.data(), image.size(), row);
    }
  }
  // Latch-free resolution. `s` is a registered snapshot, so every
  // concurrent trim cuts strictly below it — the visible version is always
  // still linked; versions being stamped right now commit above `s`.
  const RowVersion* v = VersionChains::ResolveChain(head, s);
  if (v == nullptr || v->deleted()) return Status::NotFound("snapshot get");
  const std::string_view image = v->image();
  return RowCodec::Decode(*schema_, image.data(), image.size(), row);
}

Status RowTable::SnapshotScan(
    Vid s, const std::function<bool(int64_t, const Row&)>& fn) const {
  return SnapshotScanRange(s, std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max(), fn);
}

Status RowTable::SnapshotScanRange(
    Vid s, int64_t lo, int64_t hi,
    const std::function<bool(int64_t, const Row&)>& fn) const {
  if (lo > hi) return Status::OK();
  int64_t cursor = lo;
  // One merged entry per key in the step: a chain head to resolve
  // latch-free, or (head == nullptr) a tree image taken under the latch.
  struct Pending {
    int64_t pk;
    const RowVersion* head;
    std::string image;
  };
  std::vector<Pending> merged;
  std::vector<std::pair<int64_t, std::string>> batch;
  Row row;
  // The guard spans the whole scan: heads harvested in any step stay
  // traversable until we return, even across the per-step latch drops.
  ArenaReadGuard guard;
  for (;;) {
    batch.clear();
    merged.clear();
    bool more = false;
    int64_t last_tree_pk = 0;
    {
      std::shared_lock<WriterPrioritySharedMutex> g(latch_);
      IMCI_RETURN_NOT_OK(
          btree_.ScanRange(cursor, hi, [&](int64_t pk, const std::string& im) {
            batch.emplace_back(pk, im);
            return batch.size() < kScanBatch;
          }));
      // This step covers [cursor, upper]; the latch hold only *harvests* —
      // tree images and chain heads form one consistent cut, and the chain
      // walk happens after the latch is released (`s` is registered, so no
      // concurrent trim can cut at or above it).
      int64_t upper = hi;
      if (batch.size() >= kScanBatch && batch.back().first < hi) {
        upper = batch.back().first;
        last_tree_pk = upper;
        more = true;
      }
      // Merge tree keys with chain-only keys (rows whose snapshot-visible
      // version is no longer in the tree, e.g. deletes committed after s).
      auto bit = batch.begin();
      auto vit = versions_.lower_bound(cursor);
      while (bit != batch.end() ||
             (vit != versions_.end() && vit->first <= upper)) {
        bool take_tree = bit != batch.end();
        bool take_chain = vit != versions_.end() && vit->first <= upper;
        if (take_tree && take_chain) {
          if (bit->first < vit->first) {
            take_chain = false;
          } else if (vit->first < bit->first) {
            take_tree = false;
          }
        }
        const int64_t pk = take_tree ? bit->first : vit->first;
        if (take_chain) {
          merged.push_back(
              {pk, vit->second.head.load(std::memory_order_acquire), {}});
          ++vit;
        } else {
          // Chainless row: the tree image is the visible version (pruning
          // invariant); hand the string over instead of copying it.
          merged.push_back({pk, nullptr, std::move(bit->second)});
        }
        if (take_tree) ++bit;
      }
    }
    for (const Pending& p : merged) {
      std::string_view image = p.image;
      if (p.head != nullptr) {
        const RowVersion* v = VersionChains::ResolveChain(p.head, s);
        if (v == nullptr || v->deleted()) continue;
        image = v->image();
      }
      if (!RowCodec::Decode(*schema_, image.data(), image.size(), &row).ok()) {
        continue;
      }
      if (!fn(p.pk, row)) return Status::OK();
    }
    if (!more) return Status::OK();
    cursor = last_tree_pk + 1;
  }
}

Status RowTable::SnapshotIndexLookupRange(Vid s, int col, int64_t lo,
                                          int64_t hi,
                                          std::vector<int64_t>* pks) const {
  std::shared_lock<WriterPrioritySharedMutex> g(latch_);
  auto idx = sec_index_.find(col);
  if (idx == sec_index_.end()) return Status::NotSupported("no index");
  std::set<int64_t> cand;
  for (auto it = idx->second.lower_bound(lo);
       it != idx->second.end() && it->first <= hi; ++it) {
    cand.insert(it->second.begin(), it->second.end());
  }
  // Chains can hold the only snapshot-visible version of a row whose index
  // entry was already retargeted or removed by a newer write; sweep them.
  for (auto it = versions_.begin(); it != versions_.end(); ++it) {
    cand.insert(it->first);
  }
  Row row;
  std::string tree_image;
  for (int64_t pk : cand) {
    std::string_view image;
    const RowVersion* v = nullptr;
    if (versions_.Resolve(pk, s, &v)) {
      if (v == nullptr || v->deleted()) continue;
      image = v->image();
    } else {
      if (!btree_.Lookup(pk, &tree_image).ok()) continue;
      image = tree_image;
    }
    if (!RowCodec::Decode(*schema_, image.data(), image.size(), &row).ok()) {
      continue;
    }
    if (IsNull(row[col])) continue;
    const int64_t val = AsInt(row[col]);
    if (val >= lo && val <= hi) pks->push_back(pk);
  }
  return Status::OK();
}

Status RowTable::BulkLoad(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    return AsInt(a[schema_->pk_col()]) < AsInt(b[schema_->pk_col()]);
  });
  std::vector<std::pair<int64_t, std::string>> encoded;
  encoded.reserve(rows.size());
  for (const Row& r : rows) {
    std::string image;
    RowCodec::Encode(*schema_, r, &image);
    encoded.emplace_back(AsInt(r[schema_->pk_col()]), std::move(image));
  }
  std::unique_lock<WriterPrioritySharedMutex> g(latch_);
  IMCI_RETURN_NOT_OK(btree_.BulkLoad(encoded));
  for (const Row& r : rows) IndexInsert(r, AsInt(r[schema_->pk_col()]));
  row_count_.store(rows.size());
  return Status::OK();
}

Status RowTable::RebuildIndexesFromPages() {
  std::unique_lock<WriterPrioritySharedMutex> g(latch_);
  for (auto& [col, index] : sec_index_) index.clear();
  uint64_t count = 0;
  Row row;
  IMCI_RETURN_NOT_OK(btree_.Scan([&](int64_t pk, const std::string& image) {
    if (RowCodec::Decode(*schema_, image.data(), image.size(), &row).ok()) {
      IndexInsert(row, pk);
      ++count;
    }
    return true;
  }));
  row_count_.store(count);
  return Status::OK();
}

void RowTable::ApplyReplica(ReplicaApply&& a) {
  std::unique_lock<WriterPrioritySharedMutex> g(latch_);
  switch (a.kind) {
    case ReplicaApply::Kind::kInsert: {
      const int64_t pk = AsInt(a.new_row[schema_->pk_col()]);
      IndexInsert(a.new_row, pk);
      row_count_.fetch_add(1, std::memory_order_relaxed);
      if (a.tid != 0) {
        versions_.Install(pk, a.tid, /*deleted=*/false, a.image, nullptr);
      }
      break;
    }
    case ReplicaApply::Kind::kUpdate: {
      const int64_t pk = AsInt(a.new_row[schema_->pk_col()]);
      IndexRemove(a.old_row, pk);
      IndexInsert(a.new_row, pk);
      if (a.tid != 0) {
        versions_.Install(pk, a.tid, /*deleted=*/false, a.image,
                          &a.base_image);
      }
      break;
    }
    case ReplicaApply::Kind::kDelete: {
      const int64_t pk = AsInt(a.old_row[schema_->pk_col()]);
      IndexRemove(a.old_row, pk);
      row_count_.fetch_sub(1, std::memory_order_relaxed);
      if (a.tid != 0) {
        versions_.Install(pk, a.tid, /*deleted=*/true, std::string_view(),
                          &a.base_image);
      }
      break;
    }
    case ReplicaApply::Kind::kNone:
      break;
  }
}

void RowTable::RestoreRowLocked(int64_t pk, const RowVersion* target,
                                std::vector<RedoRecord>* redo) {
  std::string cur;
  const bool in_tree = btree_.Lookup(pk, &cur).ok();
  Row row;
  if (target == nullptr || target->deleted()) {
    if (in_tree) {
      std::string old_image;
      if (btree_.Delete(pk, &old_image, redo).ok()) {
        row_count_.fetch_sub(1, std::memory_order_relaxed);
        if (RowCodec::Decode(*schema_, old_image.data(), old_image.size(),
                             &row)
                .ok()) {
          IndexRemove(row, pk);
        }
      }
    }
    return;
  }
  const std::string target_image(target->image());
  if (!in_tree) {
    if (btree_.Insert(pk, target_image, redo).ok()) {
      row_count_.fetch_add(1, std::memory_order_relaxed);
      if (RowCodec::Decode(*schema_, target_image.data(), target_image.size(),
                           &row)
              .ok()) {
        IndexInsert(row, pk);
      }
    }
    return;
  }
  if (cur == target_image) return;  // already at the target
  std::string old_image;
  if (!btree_.Update(pk, target_image, &old_image, redo).ok()) return;
  if (RowCodec::Decode(*schema_, old_image.data(), old_image.size(), &row)
          .ok()) {
    IndexRemove(row, pk);
  }
  if (RowCodec::Decode(*schema_, target_image.data(), target_image.size(),
                       &row)
          .ok()) {
    IndexInsert(row, pk);
  }
}

Status RowTable::UndoWrites(Tid tid, Vid commit_vid,
                            const std::vector<int64_t>& pks,
                            const RedoShipFn& ship) {
  // The restore target — the newest committed version older than the
  // writer's own — is always still linked in the chain:
  //   - strict 2PL: the writer holds the row lock on every pk for its whole
  //     life, so nothing lands above its version and no other commit's
  //     trim touches these chains;
  //   - TrimChainLocked keeps the newest committed version <= its watermark
  //     and everything newer, and Prune erases a chain only when a single
  //     committed version survives — never one under the writer's version;
  //   - a lost commit's VID is never published: nothing publishes at or
  //     above it before DropLostPublications (the poisoned log froze the
  //     durable watermark below its record), so no prune watermark reaches
  //     it and its stamped versions stay above every cut.
  const Vid below = commit_vid == 0 ? kMaxVid : commit_vid - 1;
  std::unique_lock<WriterPrioritySharedMutex> g(latch_);
  std::vector<RedoRecord> redo;
  for (int64_t pk : pks) {
    RestoreRowLocked(
        pk, VersionChains::ResolveChain(versions_.Head(pk), below), &redo);
  }
  // Under the latch: log order == page-op order. A row already at its
  // target (say, inserted then deleted) restores without a record.
  Status s = ship && !redo.empty() ? ship(&redo) : Status::OK();
  if (commit_vid == 0) {
    versions_.Abort(tid, pks);
  } else {
    versions_.Retract(commit_vid, pks);
  }
  return s;
}

size_t RowTable::RollbackInflight() {
  std::unique_lock<WriterPrioritySharedMutex> g(latch_);
  // Replica-local restore on a final log: the records ship nowhere.
  std::vector<RedoRecord> discard;
  size_t undone = 0;
  for (int64_t pk : versions_.InflightPks()) {
    RestoreRowLocked(
        pk, VersionChains::ResolveChain(versions_.Head(pk), kMaxVid), &discard);
    undone += versions_.DropInflight(pk);
  }
  return undone;
}

void RowTable::StampVersions(Tid tid, Vid vid,
                             const std::vector<int64_t>& pks,
                             Vid trim_below) {
  std::unique_lock<WriterPrioritySharedMutex> g(latch_);
  versions_.Stamp(tid, vid, pks, trim_below);
}

void RowTable::AbortVersions(Tid tid, const std::vector<int64_t>& pks) {
  std::unique_lock<WriterPrioritySharedMutex> g(latch_);
  versions_.Abort(tid, pks);
}

size_t RowTable::PruneVersions(Vid watermark) {
  std::unique_lock<WriterPrioritySharedMutex> g(latch_);
  return versions_.Prune(watermark);
}

size_t RowTable::versioned_row_count() const {
  std::shared_lock<WriterPrioritySharedMutex> g(latch_);
  return versions_.chain_count();
}

size_t RowTable::VersionChainLength(int64_t pk) const {
  std::shared_lock<WriterPrioritySharedMutex> g(latch_);
  return versions_.ChainLength(pk);
}

size_t RowTable::MaxVersionChainLength() const {
  std::shared_lock<WriterPrioritySharedMutex> g(latch_);
  return versions_.MaxChainLength();
}

MvccStats RowTable::MvccStatsSnapshot() const {
  std::shared_lock<WriterPrioritySharedMutex> g(latch_);
  return versions_.Stats();
}

void RowTable::IndexInsert(const Row& row, int64_t pk) {
  for (auto& [col, index] : sec_index_) {
    if (IsNull(row[col])) continue;
    index[AsInt(row[col])].insert(pk);
  }
}

void RowTable::IndexRemove(const Row& row, int64_t pk) {
  for (auto& [col, index] : sec_index_) {
    if (IsNull(row[col])) continue;
    auto it = index.find(AsInt(row[col]));
    if (it != index.end()) {
      it->second.erase(pk);
      if (it->second.empty()) index.erase(it);
    }
  }
}

}  // namespace imci
