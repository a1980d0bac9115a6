#ifndef POLARDB_IMCI_IMCI_ROW_GROUP_H_
#define POLARDB_IMCI_IMCI_ROW_GROUP_H_

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/string_pool.h"

namespace imci {

/// Statistics kept per Data Pack (one column within one row group), the
/// paper's "Pack Meta" (§4.1), reduced to what readers use: the integer
/// min/max that scans prune on and the optimizer reads, the NULL count, and
/// a small value sample (standing in for the sampling histogram).
struct PackMeta {
  int64_t min_i = std::numeric_limits<int64_t>::max();
  int64_t max_i = std::numeric_limits<int64_t>::min();
  bool has_value = false;
  uint64_t null_count = 0;
  std::vector<Value> sample;  // first values, for optimizer statistics
};

/// One column's storage inside a row group — a "Data Pack": a raw lane
/// written append-only, one slot per row. Packs stay raw in memory; the
/// checkpoint is the one place a lane is compressed (§4.3). A string slot
/// is an 8-byte ref into the pack's pool; a NULL or "" slot holds an empty
/// ref.
struct ColumnPack {
  DataType type = DataType::kInt64;
  std::vector<int64_t> ints;
  std::vector<double> dbls;
  std::vector<StrRef> refs;
  StringPool pool;             // appended under the group's latch
  std::vector<uint8_t> nulls;  // one byte per row: safe concurrent slots
};

/// A row group (§4.1): `capacity` rows, one Data Pack per indexed column,
/// plus the insert-VID and delete-VID maps that implement snapshot isolation
/// over append-only storage. Full-size groups are immutable (only delete
/// VIDs may still change); the last, partial group is filled append-only.
///
/// Concurrency: distinct row slots may be written by different Phase#2
/// workers simultaneously (each RID is owned by exactly one writer, and
/// each slot is written once); a writer copies a string into its pack's
/// pool under the group latch. Publication is via the insert VID (release
/// store) which readers check first (acquire load), so a reader that sees
/// the VID also sees the slot's ref and bytes. Delete VIDs are CAS-set.
class RowGroup {
 public:
  /// `cols` maps pack ordinal -> schema column ordinal.
  RowGroup(const Schema& schema, std::vector<int> cols, uint32_t capacity,
           Rid base_rid);

  uint32_t capacity() const { return capacity_; }
  Rid base_rid() const { return base_rid_; }
  int num_packs() const { return static_cast<int>(cols_.size()); }

  /// Writes the indexed columns of `row` into slot `offset`. Does not make
  /// the row visible; call SetInsertVid afterwards. InvalidArgument when a
  /// string does not fit its pack's 32-bit offsets.
  Status WriteRow(uint32_t offset, const Row& row);

  void SetInsertVid(uint32_t offset, Vid vid) {
    insert_vids_[offset].store(vid, std::memory_order_release);
  }
  void SetDeleteVid(uint32_t offset, Vid vid) {
    delete_vids_[offset].store(vid, std::memory_order_release);
  }
  Vid InsertVid(uint32_t offset) const {
    if (insert_vids_dropped_.load(std::memory_order_acquire)) return 0;
    return insert_vids_[offset].load(std::memory_order_acquire);
  }
  Vid DeleteVid(uint32_t offset) const {
    return delete_vids_[offset].load(std::memory_order_acquire);
  }

  /// MVCC visibility check (§4.1): a version is visible at `read_vid` iff
  /// insert_vid <= read_vid < delete_vid (and the slot was published).
  bool Visible(uint32_t offset, Vid read_vid) const {
    const Vid iv = InsertVid(offset);
    if (iv == kInvalidVid || iv > read_vid) return false;
    return DeleteVid(offset) > read_vid;
  }

  /// Direct lane accessors for the vectorized scan.
  const int64_t* int_data(int pack) const { return packs_[pack].ints.data(); }
  const double* double_data(int pack) const {
    return packs_[pack].dbls.data();
  }
  std::string_view str_at(int pack, uint32_t offset) const {
    const ColumnPack& p = packs_[pack];
    return p.pool.View(p.refs[offset]);
  }
  const uint8_t* null_data(int pack) const {
    return packs_[pack].nulls.data();
  }
  DataType pack_type(int pack) const { return packs_[pack].type; }
  Value GetValue(int pack, uint32_t offset) const;

  /// A copy of `pack`'s statistics, taken under the latch: appliers update
  /// them while queries read them.
  PackMeta meta(int pack) const;
  /// [min, max] of an integer pack's non-NULL values, under the latch and
  /// without copying the sample; false when the pack has none.
  bool IntRange(int pack, int64_t* min, int64_t* max) const;
  /// NULL count of `pack`, under the latch.
  uint64_t NullCount(int pack) const;

  /// Drops the insert-VID map once every read view sees every insert in the
  /// group (§4.3 memory-footprint optimization): the newest insert VID is at
  /// or below `min_active_vid`, the oldest pinned read view. Only for a full
  /// group, with the caller serialized with the appliers.
  bool MaybeDropInsertVids(Vid min_active_vid);
  bool insert_vids_dropped() const {
    return insert_vids_dropped_.load(std::memory_order_acquire);
  }

  /// Valid (not deleted, published) rows among the first `used` slots at
  /// `read_vid` — used by compaction's under-flow detection.
  uint32_t CountVisible(uint32_t used, Vid read_vid) const;

  /// Marks the group retired (picked by compaction; awaiting reclamation).
  void Retire() { retired_.store(true, std::memory_order_release); }
  bool retired() const { return retired_.load(std::memory_order_acquire); }

  /// Records an insert VID; the maximum gates insert-map dropping.
  void NoteInsertVid(Vid v);

  // Checkpoint support: raw access to VID arrays.
  const std::atomic<Vid>* raw_insert_vids() const {
    return insert_vids_.get();
  }
  const std::atomic<Vid>* raw_delete_vids() const {
    return delete_vids_.get();
  }
  std::atomic<Vid>* raw_insert_vids() { return insert_vids_.get(); }
  std::atomic<Vid>* raw_delete_vids() { return delete_vids_.get(); }
  ColumnPack* mutable_pack(int pack) { return &packs_[pack]; }
  /// Recomputes all pack metas over the first `used` slots (checkpoint load).
  void RebuildMeta(uint32_t used);

 private:
  /// Folds slot `offset` of `pack` into its meta; the caller holds mu_.
  void UpdateMetaLocked(int pack, uint32_t offset);

  const Schema* schema_;
  std::vector<int> cols_;
  uint32_t capacity_;
  Rid base_rid_;
  std::vector<ColumnPack> packs_;
  std::vector<PackMeta> metas_;
  mutable std::mutex mu_;  // guards metas_ and every pack's pool appends
  std::unique_ptr<std::atomic<Vid>[]> insert_vids_;
  std::unique_ptr<std::atomic<Vid>[]> delete_vids_;
  std::atomic<Vid> max_insert_vid_{0};
  std::atomic<bool> insert_vids_dropped_{false};
  std::atomic<bool> retired_{false};
};

}  // namespace imci

#endif  // POLARDB_IMCI_IMCI_ROW_GROUP_H_
