#include "imci/column_index.h"

#include <algorithm>

namespace imci {

ColumnIndex::ColumnIndex(std::shared_ptr<const Schema> schema,
                         ColumnIndexOptions options,
                         SnapshotRegistry* read_views)
    : schema_(std::move(schema)),
      options_(options),
      read_views_(read_views) {
  col_to_pack_.assign(schema_->num_columns(), -1);
  for (int c = 0; c < schema_->num_columns(); ++c) {
    if (schema_->InColumnIndex(c)) {
      col_to_pack_[c] = static_cast<int>(cols_.size());
      cols_.push_back(c);
    }
  }
  pk_pack_ = col_to_pack_[schema_->pk_col()];
}

int ColumnIndex::PackForColumn(int col) const { return col_to_pack_[col]; }

std::shared_ptr<RowGroup> ColumnIndex::EnsureGroup(size_t idx) {
  {
    std::shared_lock<std::shared_mutex> g(groups_mu_);
    if (idx < groups_.size() && groups_[idx]) return groups_[idx];
  }
  std::unique_lock<std::shared_mutex> g(groups_mu_);
  while (groups_.size() <= idx) {
    const Rid base = groups_.size() * options_.row_group_size;
    groups_.push_back(std::make_shared<RowGroup>(
        *schema_, cols_, options_.row_group_size, base));
  }
  return groups_[idx];
}

size_t ColumnIndex::num_groups() const {
  std::shared_lock<std::shared_mutex> g(groups_mu_);
  return groups_.size();
}

std::shared_ptr<RowGroup> ColumnIndex::group(size_t i) const {
  std::shared_lock<std::shared_mutex> g(groups_mu_);
  return i < groups_.size() ? groups_[i] : nullptr;
}

uint32_t ColumnIndex::GroupUsed(size_t i) const {
  const Rid next = next_rid();
  const uint64_t base = static_cast<uint64_t>(i) * options_.row_group_size;
  if (next <= base) return 0;
  return static_cast<uint32_t>(
      std::min<uint64_t>(next - base, options_.row_group_size));
}

Status ColumnIndex::Insert(const Row& row, Vid vid) {
  // §4.2 insert: (1) allocate an empty RID from the partial packs,
  // (2) write the row data, (3) record PK->RID in the locator,
  // (4) publish the insert VID (commit sequence number). A row whose data
  // is refused is never located or published.
  const Rid rid = next_rid_.fetch_add(1, std::memory_order_acq_rel);
  auto group = EnsureGroup(rid / options_.row_group_size);
  const uint32_t off = OffsetForRid(rid);
  IMCI_RETURN_NOT_OK(group->WriteRow(off, row));
  locator_.Put(AsInt(row[schema_->pk_col()]), rid);
  group->NoteInsertVid(vid);
  group->SetInsertVid(off, vid);
  return Status::OK();
}

Status ColumnIndex::Delete(int64_t pk, Vid vid) {
  Rid rid;
  IMCI_RETURN_NOT_OK(locator_.Get(pk, &rid));
  auto group = GroupForRid(rid);
  if (!group) return Status::NotFound("group reclaimed");
  group->SetDeleteVid(OffsetForRid(rid), vid);
  locator_.Erase(pk);
  return Status::OK();
}

Status ColumnIndex::Update(const Row& new_row, Vid vid) {
  const int64_t pk = AsInt(new_row[schema_->pk_col()]);
  // Out-of-place (§4.2): logical delete of the old version, then append.
  Status s = Delete(pk, vid);
  if (!s.ok() && !s.IsNotFound()) return s;
  return Insert(new_row, vid);
}

Rid ColumnIndex::PreAllocate(uint32_t n) {
  const Rid first = next_rid_.fetch_add(n, std::memory_order_acq_rel);
  EnsureGroup((first + n - 1) / options_.row_group_size);
  return first;
}

Status ColumnIndex::PreWrite(Rid rid, const Row& row) {
  auto group = GroupForRid(rid);
  if (!group) return Status::NotFound("group");
  const uint32_t off = OffsetForRid(rid);
  IMCI_RETURN_NOT_OK(group->WriteRow(off, row));
  // Both VIDs stay invalid: the row is invisible to every snapshot (§5.5).
  group->SetDeleteVid(off, kMaxVid);
  return Status::OK();
}

Status ColumnIndex::RectifyInsert(Rid rid, int64_t pk, Vid vid) {
  auto group = GroupForRid(rid);
  if (!group) return Status::NotFound("group");
  const uint32_t off = OffsetForRid(rid);
  locator_.Put(pk, rid);
  group->NoteInsertVid(vid);
  group->SetInsertVid(off, vid);
  return Status::OK();
}

Status ColumnIndex::LookupByPk(int64_t pk, Vid read_vid, Row* row) const {
  Rid rid;
  IMCI_RETURN_NOT_OK(locator_.Get(pk, &rid));
  auto group = GroupForRid(rid);
  if (!group) return Status::NotFound("group reclaimed");
  const uint32_t off = OffsetForRid(rid);
  if (!group->Visible(off, read_vid)) return Status::NotFound("invisible");
  return MaterializeRow(rid, row);
}

Status ColumnIndex::MaterializeRow(Rid rid, Row* row) const {
  auto group = GroupForRid(rid);
  if (!group) return Status::NotFound("group reclaimed");
  const uint32_t off = OffsetForRid(rid);
  row->assign(schema_->num_columns(), Value{});
  for (size_t p = 0; p < cols_.size(); ++p) {
    (*row)[cols_[p]] = group->GetValue(static_cast<int>(p), off);
  }
  return Status::OK();
}

std::vector<size_t> ColumnIndex::FindUnderflowGroups(Vid read_vid,
                                                     double threshold) const {
  std::vector<size_t> out;
  const size_t n = num_groups();
  for (size_t i = 0; i < n; ++i) {
    auto g = group(i);
    if (!g || g->retired()) continue;
    const uint32_t used = GroupUsed(i);
    if (used < options_.row_group_size) continue;  // partial group: skip
    const uint32_t visible = g->CountVisible(used, read_vid);
    if (static_cast<double>(visible) < threshold * used) out.push_back(i);
  }
  return out;
}

Status ColumnIndex::CompactGroup(size_t gid, Vid vid, uint32_t* moved) {
  auto g = group(gid);
  if (!g || g->retired()) return Status::NotFound("group");
  const uint32_t used = GroupUsed(gid);
  uint32_t count = 0;
  Row row;
  for (uint32_t off = 0; off < used; ++off) {
    if (!g->Visible(off, vid)) continue;
    const Rid old_rid = g->base_rid() + off;
    IMCI_RETURN_NOT_OK(MaterializeRow(old_rid, &row));
    // Re-append as an update operation: the old version stays readable for
    // snapshots pinned before `vid` (non-blocking compaction, §4.3).
    const int64_t pk = AsInt(row[schema_->pk_col()]);
    const Rid new_rid = next_rid_.fetch_add(1, std::memory_order_acq_rel);
    auto ng = EnsureGroup(new_rid / options_.row_group_size);
    const uint32_t noff = OffsetForRid(new_rid);
    IMCI_RETURN_NOT_OK(ng->WriteRow(noff, row));
    // Preserve the original insert visibility so readers between the row's
    // insert VID and `vid` are unaffected (they still see the old copy; new
    // copy becomes the visible one from `vid` on).
    ng->NoteInsertVid(vid);
    ng->SetInsertVid(noff, vid);
    g->SetDeleteVid(off, vid);
    locator_.Put(pk, new_rid);
    ++count;
  }
  g->Retire();
  if (moved) *moved = count;
  return Status::OK();
}

size_t ColumnIndex::ReclaimRetired(Vid min_active_vid) {
  size_t freed = 0;
  std::unique_lock<std::shared_mutex> g(groups_mu_);
  for (auto& grp : groups_) {
    if (!grp || !grp->retired()) continue;
    // Safe once no view at or above the oldest pinned one sees any row
    // here. A published row is visible at some VID >= min_active_vid iff
    // its delete VID exceeds both min_active_vid and its insert VID; a row
    // inserted after the oldest view can still be visible to a newer one.
    bool any_visible = false;
    const uint32_t cap = grp->capacity();
    for (uint32_t off = 0; off < cap; ++off) {
      const Vid iv = grp->InsertVid(off);
      if (iv != kInvalidVid &&
          grp->DeleteVid(off) > std::max(min_active_vid, iv)) {
        any_visible = true;
        break;
      }
    }
    if (!any_visible) {
      grp.reset();
      ++freed;
    }
  }
  return freed;
}

size_t ColumnIndex::DropInsertVidMaps(Vid min_active_vid) {
  size_t dropped = 0;
  const size_t n = num_groups();
  for (size_t i = 0; i < n; ++i) {
    if (GroupUsed(i) != options_.row_group_size) continue;
    auto g = group(i);
    if (g && g->MaybeDropInsertVids(min_active_vid)) ++dropped;
  }
  return dropped;
}

uint64_t ColumnIndex::visible_rows(Vid read_vid) const {
  uint64_t total = 0;
  const size_t n = num_groups();
  for (size_t i = 0; i < n; ++i) {
    auto g = group(i);
    if (!g) continue;
    total += g->CountVisible(GroupUsed(i), read_vid);
  }
  return total;
}

ColumnIndex* ImciStore::CreateIndex(std::shared_ptr<const Schema> schema) {
  std::unique_lock<std::shared_mutex> g(mu_);
  auto& slot = indexes_[schema->table_id()];
  slot = std::make_unique<ColumnIndex>(std::move(schema), options_,
                                       read_views_);
  return slot.get();
}

ColumnIndex* ImciStore::GetIndex(TableId table_id) const {
  std::shared_lock<std::shared_mutex> g(mu_);
  auto it = indexes_.find(table_id);
  return it == indexes_.end() ? nullptr : it->second.get();
}

std::vector<ColumnIndex*> ImciStore::All() const {
  std::shared_lock<std::shared_mutex> g(mu_);
  std::vector<ColumnIndex*> v;
  for (auto& [id, idx] : indexes_) v.push_back(idx.get());
  return v;
}

}  // namespace imci
