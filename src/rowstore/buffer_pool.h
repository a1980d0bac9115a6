#ifndef POLARDB_IMCI_ROWSTORE_BUFFER_POOL_H_
#define POLARDB_IMCI_ROWSTORE_BUFFER_POOL_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "polarfs/polarfs.h"
#include "rowstore/page.h"

namespace imci {

/// Per-node page cache over PolarFS. The RW node's buffer pool holds the
/// authoritative working set and flushes dirty pages on checkpoint; each RO
/// node maintains its own pool, kept current by Phase#1 replay — the paper's
/// optimization of "maintaining the buffer pool of the row store like RW to
/// reduce the amount of data page reads" (§5.3).
///
/// Pages are reference-counted (PageRef); an LRU list bounds the resident
/// count, evicting clean cold pages (dirty pages are flushed first).
class BufferPool {
 public:
  /// `capacity_pages` of 0 means unbounded.
  BufferPool(PolarFs* fs, size_t capacity_pages = 0)
      : fs_(fs), capacity_(capacity_pages) {}

  /// Fetches a page, reading it from shared storage on miss. Returns nullptr
  /// status NotFound if the page exists nowhere.
  Status GetPage(PageId id, PageRef* out);

  /// Returns the cached page or nullptr, without touching shared storage.
  PageRef GetCached(PageId id);

  /// Creates a fresh page in the pool (marked dirty).
  PageRef NewPage(PageId id, TableId table_id, PageType type);

  /// Inserts/overwrites a page object directly (used when applying SMO full
  /// page images during replay).
  void PutPage(PageRef page, bool dirty);

  /// Records a write to `page`, which its writer fetched from this pool.
  /// Re-admits the page if eviction dropped it meanwhile, so the write
  /// reaches the next flush.
  void MarkDirty(const PageRef& page);

  /// Flushes one page to shared storage (no-op if absent).
  Status FlushPage(PageId id);
  /// Flushes every dirty page (RW checkpoint of the row store).
  Status FlushAll();

  /// Flushes every resident page regardless of dirty state. RO replay
  /// mutates pages without dirty tracking; the RO-leader checkpoint uses
  /// this to persist replica pages (with their page LSNs) for fast scale-out.
  Status FlushAllResident();

  uint64_t hits() const { return hits_.load(); }
  uint64_t misses() const { return misses_.load(); }
  size_t resident_pages() const;

 private:
  void TouchLocked(PageId id);
  void MaybeEvictLocked();

  PolarFs* fs_;
  size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<PageId, PageRef> pages_;
  std::unordered_set<PageId> dirty_;
  std::list<PageId> lru_;  // front == most recent
  std::unordered_map<PageId, std::list<PageId>::iterator> lru_pos_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_ROWSTORE_BUFFER_POOL_H_
