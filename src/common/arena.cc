#include "common/arena.h"

#include <algorithm>

#if defined(__SANITIZE_THREAD__)
#define IMCI_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IMCI_TSAN 1
#endif
#endif

namespace imci {

bool VersionArena::test_unsafe_immediate_reclaim = false;

namespace {

#ifdef IMCI_TSAN
std::atomic<uint64_t> fence_sync{0};
#endif

/// The StoreLoad barrier both sides of the reclamation handshake rely on.
/// tsan has no model for standalone fences (-Werror=tsan rejects them); a
/// seq_cst RMW on one shared cell provides the same ordering — the two
/// sides' RMWs are totally ordered, and whichever is second synchronizes
/// with the first — and gives tsan a happens-before edge it can track.
inline void SeqCstStoreLoadBarrier() {
#ifdef IMCI_TSAN
  fence_sync.fetch_add(1, std::memory_order_seq_cst);
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

/// Thread-local reader state: the registry slot plus a reentrancy depth so
/// nested guards keep the outermost (most conservative) era pinned.
struct TlsReader {
  ArenaReadRegistry::Slot* slot = nullptr;
  uint32_t depth = 0;

  ~TlsReader();
};

thread_local TlsReader tls_reader;

TlsReader::~TlsReader() {
  if (slot != nullptr) {
    ArenaReadRegistry::Instance().ReleaseSlot(slot);
    slot = nullptr;
  }
}

}  // namespace

ArenaReadRegistry& ArenaReadRegistry::Instance() {
  static ArenaReadRegistry* instance = new ArenaReadRegistry();
  return *instance;
}

ArenaReadRegistry::Slot* ArenaReadRegistry::ThreadSlot() {
  if (tls_reader.slot == nullptr) {
    std::lock_guard<std::mutex> g(mu_);
    if (!free_slots_.empty()) {
      tls_reader.slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slots_.push_back(std::make_unique<Slot>());
      tls_reader.slot = slots_.back().get();
    }
    tls_reader.slot->era.store(kIdle, std::memory_order_relaxed);
    tls_reader.slot->in_use.store(true, std::memory_order_release);
  }
  return tls_reader.slot;
}

void ArenaReadRegistry::ReleaseSlot(Slot* slot) {
  slot->era.store(kIdle, std::memory_order_release);
  std::lock_guard<std::mutex> g(mu_);
  slot->in_use.store(false, std::memory_order_release);
  free_slots_.push_back(slot);
}

uint64_t ArenaReadRegistry::AdvanceEra() {
  const uint64_t stamp = era_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Pair with the reader-entry barrier: after this, either the scan sees a
  // pre-stamp reader's slot store, or that reader's protected loads are
  // ordered after the retire (and it picked up post-unlink pointers).
  SeqCstStoreLoadBarrier();
  return stamp;
}

bool ArenaReadRegistry::QuiescedSince(uint64_t stamp) const {
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& slot : slots_) {
    const uint64_t e = slot->era.load(std::memory_order_seq_cst);
    if (e != kIdle && e < stamp) return false;
  }
  return true;
}


ArenaReadGuard::ArenaReadGuard() {
  if (tls_reader.depth++ != 0) return;  // nested: outermost era stays pinned
  ArenaReadRegistry& reg = ArenaReadRegistry::Instance();
  ArenaReadRegistry::Slot* slot = reg.ThreadSlot();
  slot->era.store(reg.era(), std::memory_order_relaxed);
  // Order the slot publication before every protected load (StoreLoad): a
  // reclaimer that misses this store in its scan is ordered before our
  // subsequent pointer loads, which then see only post-unlink state.
  SeqCstStoreLoadBarrier();
}

ArenaReadGuard::~ArenaReadGuard() {
  if (--tls_reader.depth != 0) return;
  tls_reader.slot->era.store(ArenaReadRegistry::kIdle,
                             std::memory_order_release);
}

VersionArena::VersionArena(size_t chunk_bytes)
    : chunk_bytes_(std::max<size_t>(chunk_bytes, 256)) {}

VersionArena::~VersionArena() {
  // Owner-destroyed with no concurrent readers by contract; everything,
  // including grace-listed chunks, goes now.
  current_.chunks.clear();
  sealed_.clear();
  grace_.clear();
}

void* VersionArena::Allocate(size_t bytes) {
  const size_t need = (bytes + 7) & ~size_t{7};
  stats_.allocations++;
  Chunk* open = current_.chunks.empty() ? nullptr : &current_.chunks.back();
  if (open == nullptr || open->size - open->used < need) {
    Chunk c;
    c.size = std::max(chunk_bytes_, need);
    c.data = std::make_unique<char[]>(c.size);
    stats_.bytes_live += c.size;
    stats_.chunks_live++;
    current_.chunks.push_back(std::move(c));
    open = &current_.chunks.back();
  }
  char* p = open->data.get() + open->used;
  open->used += need;
  return p;
}

void VersionArena::NoteStamp(uint32_t epoch, Vid vid) {
  if (epoch == current_.id) {
    current_.max_stamped_vid = std::max(current_.max_stamped_vid, vid);
    return;
  }
  for (Epoch& e : sealed_) {
    if (e.id == epoch) {
      e.max_stamped_vid = std::max(e.max_stamped_vid, vid);
      return;
    }
  }
  // Epoch already dropped: every node in it was relocated or unlinked, so
  // the stamp target is a relocated copy whose own epoch was passed too.
}

void VersionArena::SealEpoch() {
  if (current_.chunks.empty()) return;
  sealed_.push_back(std::move(current_));
  current_ = Epoch{};
  current_.id = sealed_.back().id + 1;
}

std::vector<uint32_t> VersionArena::DroppableEpochs(Vid watermark) const {
  std::vector<uint32_t> out;
  for (const Epoch& e : sealed_) {
    if (e.max_stamped_vid <= watermark) out.push_back(e.id);
  }
  return out;
}

size_t VersionArena::DropEpochs(const std::vector<uint32_t>& epochs) {
  if (epochs.empty()) return 0;
  Retired batch;
  for (auto it = sealed_.begin(); it != sealed_.end();) {
    if (std::find(epochs.begin(), epochs.end(), it->id) == epochs.end()) {
      ++it;
      continue;
    }
    for (Chunk& c : it->chunks) {
      batch.bytes += c.size;
      batch.chunks.push_back(std::move(c));
    }
    stats_.epochs_dropped++;
    it = sealed_.erase(it);
  }
  const size_t retired = batch.chunks.size();
  if (retired == 0) return 0;
  stats_.bytes_live -= batch.bytes;
  if (test_unsafe_immediate_reclaim) {
    // Test-only: free under readers' feet so the asan suite can prove the
    // grace guard matters.
    stats_.bytes_retired += batch.bytes;
    stats_.chunks_live -= retired;
    return retired;
  }
  stats_.bytes_pending += batch.bytes;
  batch.era_stamp = ArenaReadRegistry::Instance().AdvanceEra();
  grace_.push_back(std::move(batch));
  return retired;
}

size_t VersionArena::CollectGarbage() {
  size_t freed = 0;
  while (!grace_.empty() &&
         ArenaReadRegistry::Instance().QuiescedSince(grace_.front().era_stamp)) {
    Retired& r = grace_.front();
    freed += r.chunks.size();
    stats_.chunks_live -= r.chunks.size();
    stats_.bytes_pending -= r.bytes;
    stats_.bytes_retired += r.bytes;
    grace_.pop_front();
  }
  return freed;
}

}  // namespace imci
