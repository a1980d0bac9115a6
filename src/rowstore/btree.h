#ifndef POLARDB_IMCI_ROWSTORE_BTREE_H_
#define POLARDB_IMCI_ROWSTORE_BTREE_H_

#include <atomic>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "redo/redo_record.h"
#include "rowstore/buffer_pool.h"
#include "rowstore/page.h"

namespace imci {

/// Page-based B+tree keyed on the INT64 primary key; leaves store full
/// encoded row images (index-organized table, InnoDB-style). All mutations
/// emit physical REDO records:
///
///  - row changes -> kInsert / kUpdate (byte diff) / kDelete addressed by
///    (PageID, SlotID);
///  - structural changes (leaf/internal splits, root growth, meta updates)
///    -> a kSmo record carrying full images of every touched page, emitted
///    *before* the row record. kSmo records carry TID 0, so Phase#1 applies
///    them to pages without producing logical DMLs (§5.2/5.3).
///
/// Concurrency: the owning Table serializes writers (exclusive latch) and
/// allows concurrent readers (shared latch); the tree itself is not
/// internally synchronized.
class BTree {
 public:
  BTree(BufferPool* pool, std::atomic<PageId>* page_alloc, TableId table_id,
        PageId meta_page_id);

  /// Creates the meta page and an empty root leaf for a new tree.
  Status CreateEmpty();

  /// Inserts a new key. Fails with InvalidArgument on duplicate. Appends the
  /// redo records describing the page changes to `redo` (tid/lsn unset).
  Status Insert(int64_t key, const std::string& image,
                std::vector<RedoRecord>* redo);

  /// Replaces the row image of `key`; returns the previous image.
  Status Update(int64_t key, const std::string& new_image,
                std::string* old_image, std::vector<RedoRecord>* redo);

  /// Removes `key`; returns the removed image.
  Status Delete(int64_t key, std::string* old_image,
                std::vector<RedoRecord>* redo);

  Status Lookup(int64_t key, std::string* image) const;

  /// Full scan in key order. `fn` returns false to stop early.
  Status Scan(
      const std::function<bool(int64_t, const std::string&)>& fn) const;

  /// Range scan over keys in [lo, hi].
  Status ScanRange(
      int64_t lo, int64_t hi,
      const std::function<bool(int64_t, const std::string&)>& fn) const;

  /// Bulk-loads sorted (key, image) pairs into a fresh tree without redo
  /// (initial data load / DDL build path, §3.3). The tree must be empty.
  Status BulkLoad(
      const std::vector<std::pair<int64_t, std::string>>& sorted_rows);

  PageId meta_page_id() const { return meta_page_id_; }

 private:
  Status GetMeta(PageRef* meta) const;
  Status DescendToLeaf(int64_t key, PageRef* leaf,
                       std::vector<PageRef>* path) const;
  /// Splits `leaf`; propagates splits upward. Touched pages are added to
  /// `smo_pages`.
  Status SplitLeaf(const PageRef& leaf, std::vector<PageRef>& path,
                   std::vector<PageRef>* smo_pages);
  Status InsertIntoParent(const PageRef& left, int64_t sep_key,
                          const PageRef& right, std::vector<PageRef>& path,
                          std::vector<PageRef>* smo_pages);
  RedoRecord MakeSmoRecord(const std::vector<PageRef>& smo_pages) const;
  PageId AllocPage() { return page_alloc_->fetch_add(1) + 1; }

  BufferPool* pool_;
  std::atomic<PageId>* page_alloc_;
  TableId table_id_;
  PageId meta_page_id_;
};

}  // namespace imci

#endif  // POLARDB_IMCI_ROWSTORE_BTREE_H_
