#include "rowstore/buffer_pool.h"

namespace imci {

Status BufferPool::GetPage(PageId id, PageRef* out) {
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = pages_.find(id);
    if (it != pages_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      TouchLocked(id);
      *out = it->second;
      return Status::OK();
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  Blob image;
  IMCI_RETURN_NOT_OK(fs_->ReadPage(id, &image));
  auto page = std::make_shared<Page>();
  IMCI_RETURN_NOT_OK(
      Page::Deserialize(image->data(), image->size(), page.get()));
  std::lock_guard<std::mutex> g(mu_);
  auto [it, inserted] = pages_.emplace(id, page);
  // Take the page before eviction runs: when every other resident page is
  // dirty, the walk evicts the page just fetched (MarkDirty re-admits it).
  *out = it->second;
  if (inserted) {
    TouchLocked(id);
    MaybeEvictLocked();
  }
  return Status::OK();
}

PageRef BufferPool::GetCached(PageId id) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = pages_.find(id);
  if (it == pages_.end()) return nullptr;
  TouchLocked(id);
  return it->second;
}

PageRef BufferPool::NewPage(PageId id, TableId table_id, PageType type) {
  auto page = std::make_shared<Page>();
  page->id = id;
  page->table_id = table_id;
  page->type = type;
  std::lock_guard<std::mutex> g(mu_);
  pages_[id] = page;
  dirty_.insert(id);
  TouchLocked(id);
  MaybeEvictLocked();
  return page;
}

void BufferPool::PutPage(PageRef page, bool dirty) {
  std::lock_guard<std::mutex> g(mu_);
  PageId id = page->id;
  pages_[id] = std::move(page);
  if (dirty) dirty_.insert(id);
  TouchLocked(id);
  MaybeEvictLocked();
}

void BufferPool::MarkDirty(const PageRef& page) {
  std::lock_guard<std::mutex> g(mu_);
  dirty_.insert(page->id);
  PageRef& slot = pages_[page->id];
  if (slot == page) return;
  // Eviction dropped the page while its writer held it (or a reader has
  // since fetched the older image): the writer's copy is the current one.
  slot = page;
  TouchLocked(page->id);
  MaybeEvictLocked();
}

Status BufferPool::FlushPage(PageId id) {
  PageRef page;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = pages_.find(id);
    if (it == pages_.end()) return Status::OK();
    page = it->second;
    dirty_.erase(id);
  }
  std::string image;
  page->Serialize(&image);
  return fs_->WritePage(id, std::move(image));
}

Status BufferPool::FlushAll() {
  std::vector<PageId> to_flush;
  {
    std::lock_guard<std::mutex> g(mu_);
    to_flush.assign(dirty_.begin(), dirty_.end());
  }
  for (PageId id : to_flush) IMCI_RETURN_NOT_OK(FlushPage(id));
  return Status::OK();
}

Status BufferPool::FlushAllResident() {
  std::vector<PageId> all;
  {
    std::lock_guard<std::mutex> g(mu_);
    all.reserve(pages_.size());
    for (auto& [id, page] : pages_) all.push_back(id);
  }
  for (PageId id : all) IMCI_RETURN_NOT_OK(FlushPage(id));
  return Status::OK();
}

size_t BufferPool::resident_pages() const {
  std::lock_guard<std::mutex> g(mu_);
  return pages_.size();
}

void BufferPool::TouchLocked(PageId id) {
  auto it = lru_pos_.find(id);
  if (it != lru_pos_.end()) lru_.erase(it->second);
  lru_.push_front(id);
  lru_pos_[id] = lru_.begin();
}

void BufferPool::MaybeEvictLocked() {
  if (capacity_ == 0) return;
  while (pages_.size() > capacity_ && !lru_.empty()) {
    // Evict the coldest *clean* page; dirty pages are skipped here (they are
    // flushed by checkpoints). Scan from the back.
    auto rit = lru_.rbegin();
    bool evicted = false;
    for (; rit != lru_.rend(); ++rit) {
      if (dirty_.count(*rit)) continue;
      PageId victim = *rit;
      pages_.erase(victim);
      lru_.erase(std::next(rit).base());
      lru_pos_.erase(victim);
      evicted = true;
      break;
    }
    if (!evicted) break;  // everything dirty; let it grow
  }
}

}  // namespace imci
