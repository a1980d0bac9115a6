#include "imci/row_group.h"

namespace imci {

RowGroup::RowGroup(const Schema& schema, std::vector<int> cols,
                   uint32_t capacity, Rid base_rid)
    : schema_(&schema),
      cols_(std::move(cols)),
      capacity_(capacity),
      base_rid_(base_rid),
      insert_vids_(new std::atomic<Vid>[capacity]),
      delete_vids_(new std::atomic<Vid>[capacity]) {
  packs_.resize(cols_.size());
  metas_.resize(cols_.size());
  for (size_t p = 0; p < cols_.size(); ++p) {
    ColumnPack& pack = packs_[p];
    pack.type = schema.column(cols_[p]).type;
    pack.nulls.assign(capacity, 0);
    switch (pack.type) {
      case DataType::kInt64:
      case DataType::kInt32:
      case DataType::kDate:
        pack.ints.assign(capacity, 0);
        break;
      case DataType::kDouble:
        pack.dbls.assign(capacity, 0.0);
        break;
      case DataType::kString:
        pack.refs.assign(capacity, StrRef{});
        break;
    }
  }
  for (uint32_t i = 0; i < capacity; ++i) {
    insert_vids_[i].store(kInvalidVid, std::memory_order_relaxed);
    delete_vids_[i].store(kMaxVid, std::memory_order_relaxed);
  }
}

Status RowGroup::WriteRow(uint32_t offset, const Row& row) {
  std::lock_guard<std::mutex> g(mu_);
  for (size_t p = 0; p < cols_.size(); ++p) {
    ColumnPack& pack = packs_[p];
    const Value& v = row[cols_[p]];
    if (IsNull(v)) {
      pack.nulls[offset] = 1;
    } else {
      pack.nulls[offset] = 0;
      switch (pack.type) {
        case DataType::kInt64:
        case DataType::kInt32:
        case DataType::kDate:
          pack.ints[offset] = AsInt(v);
          break;
        case DataType::kDouble:
          pack.dbls[offset] = AsDouble(v);
          break;
        case DataType::kString:
          if (!pack.pool.Append(AsString(v), &pack.refs[offset])) {
            return Status::InvalidArgument(
                "string does not fit its pack's 32-bit offsets");
          }
          break;
      }
    }
    UpdateMetaLocked(static_cast<int>(p), offset);
  }
  return Status::OK();
}

Value RowGroup::GetValue(int pack, uint32_t offset) const {
  const ColumnPack& p = packs_[pack];
  if (p.nulls[offset]) return Value{};
  switch (p.type) {
    case DataType::kInt64:
    case DataType::kInt32:
    case DataType::kDate:
      return p.ints[offset];
    case DataType::kDouble:
      return p.dbls[offset];
    case DataType::kString:
      return std::string(p.pool.View(p.refs[offset]));
  }
  return Value{};
}

PackMeta RowGroup::meta(int pack) const {
  std::lock_guard<std::mutex> g(mu_);
  return metas_[pack];
}

bool RowGroup::IntRange(int pack, int64_t* min, int64_t* max) const {
  std::lock_guard<std::mutex> g(mu_);
  const PackMeta& m = metas_[pack];
  *min = m.min_i;
  *max = m.max_i;
  return m.has_value;
}

uint64_t RowGroup::NullCount(int pack) const {
  std::lock_guard<std::mutex> g(mu_);
  return metas_[pack].null_count;
}

void RowGroup::UpdateMetaLocked(int pack, uint32_t offset) {
  PackMeta& m = metas_[pack];
  const ColumnPack& p = packs_[pack];
  if (p.nulls[offset]) {
    m.null_count++;
    return;
  }
  m.has_value = true;
  if (IsIntegerType(p.type)) {
    m.min_i = std::min(m.min_i, p.ints[offset]);
    m.max_i = std::max(m.max_i, p.ints[offset]);
  }
  if (m.sample.size() < 64) m.sample.push_back(GetValue(pack, offset));
}

bool RowGroup::MaybeDropInsertVids(Vid min_active_vid) {
  if (insert_vids_dropped_.load(std::memory_order_acquire)) return true;
  if (max_insert_vid_.load(std::memory_order_acquire) > min_active_vid) {
    return false;
  }
  // Every published insert is at or below every possible read view (a view
  // at VID v sees inserts up to v): the insert check always passes, so the
  // map can be discarded. Unpublished
  // slots (kInvalidVid) in a full group only exist for pre-commit slots
  // not yet rectified or aborted residue, which compaction eliminates
  // before retiring the group; we keep the map if any slot is unpublished.
  for (uint32_t i = 0; i < capacity_; ++i) {
    if (insert_vids_[i].load(std::memory_order_relaxed) == kInvalidVid) {
      return false;
    }
  }
  insert_vids_dropped_.store(true, std::memory_order_release);
  return true;
}

uint32_t RowGroup::CountVisible(uint32_t used, Vid read_vid) const {
  uint32_t n = 0;
  for (uint32_t i = 0; i < used && i < capacity_; ++i) {
    if (Visible(i, read_vid)) ++n;
  }
  return n;
}

void RowGroup::RebuildMeta(uint32_t used) {
  {
    std::lock_guard<std::mutex> g(mu_);
    for (size_t p = 0; p < packs_.size(); ++p) {
      metas_[p] = PackMeta();
      for (uint32_t i = 0; i < used; ++i) {
        UpdateMetaLocked(static_cast<int>(p), i);
      }
    }
  }
  Vid max_iv = 0;
  for (uint32_t i = 0; i < used; ++i) {
    Vid iv = insert_vids_[i].load(std::memory_order_relaxed);
    if (iv != kInvalidVid) max_iv = std::max(max_iv, iv);
  }
  NoteInsertVid(max_iv);
}

void RowGroup::NoteInsertVid(Vid v) {
  Vid cur = max_insert_vid_.load(std::memory_order_relaxed);
  while (v > cur && !max_insert_vid_.compare_exchange_weak(
                        cur, v, std::memory_order_release)) {
  }
}

}  // namespace imci
