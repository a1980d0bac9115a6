#ifndef POLARDB_IMCI_COMMON_SNAPSHOT_REGISTRY_H_
#define POLARDB_IMCI_COMMON_SNAPSHOT_REGISTRY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

#include "common/types.h"

namespace imci {

/// Registry of live snapshot VIDs feeding every release watermark: no trim,
/// prune or reclaim may drop state the oldest registered snapshot can still
/// read. One instance per node: the RW's transaction manager registers its
/// read views here, and an RO its row and column reads and fragment pins.
/// `published` is always the owner's commit point (the RW's published
/// snapshot VID / the RO's applied VID).
class SnapshotRegistry {
 public:
  /// RAII handle on one registered snapshot: opened at the owner's
  /// published point (OpenView) or pinned at a given VID (PinView). Reads
  /// through it observe one commit point, and no trim, prune or reclaim
  /// drops what it reads until it closes. Move-only; closes once.
  class View {
   public:
    View(View&& o) noexcept
        : reg_(std::exchange(o.reg_, nullptr)),
          published_(o.published_),
          vid_(o.vid_) {}
    ~View() { Close(); }

    Vid vid() const { return vid_; }
    /// Unregisters the snapshot early; later calls release nothing.
    void Close() {
      if (SnapshotRegistry* reg = std::exchange(reg_, nullptr)) {
        published_ ? reg->Close(vid_, *published_) : reg->Unpin(vid_);
      }
    }

   private:
    friend class SnapshotRegistry;
    View(SnapshotRegistry* reg, const std::atomic<Vid>* published, Vid vid)
        : reg_(reg), published_(published), vid_(vid) {}

    SnapshotRegistry* reg_ = nullptr;            // null once closed
    const std::atomic<Vid>* published_ = nullptr;  // null for a pin
    Vid vid_ = 0;
  };

  View OpenView(const std::atomic<Vid>& published) {
    return View(this, &published, Open(published));
  }
  /// Pin first, then ask Covers(view.vid()) before reading.
  View PinView(Vid vid) { return View(this, nullptr, Pin(vid)); }

  /// Registers a live snapshot at the current `published` point and returns
  /// it. The sample happens under the registry mutex so a concurrent
  /// watermark computation either sees the registration or finished before
  /// the sample — either way it never exceeds the returned VID, so the
  /// snapshot is covered by construction.
  Vid Open(const std::atomic<Vid>& published) {
    std::lock_guard<std::mutex> g(mu_);
    const Vid vid = published.load(std::memory_order_acquire);
    live_[vid]++;
    RefreshLocked(vid);
    return vid;
  }

  /// Unregisters one use of snapshot `vid` (refreshes the hint).
  void Close(Vid vid, const std::atomic<Vid>& published) {
    std::lock_guard<std::mutex> g(mu_);
    ReleaseLocked(vid);
    RefreshLocked(published.load(std::memory_order_acquire));
  }

  /// Registers a snapshot at `vid`, which may lie below or above the
  /// published point, and returns a token for Unpin. Pin first, then ask
  /// Covers: while the pin holds, a true answer stays true.
  uint64_t Pin(Vid vid) {
    std::lock_guard<std::mutex> g(mu_);
    live_[vid]++;
    return vid;
  }
  void Unpin(uint64_t token) {
    std::lock_guard<std::mutex> g(mu_);
    ReleaseLocked(token);
  }

  /// False when a watermark above `vid` was already handed out, so state a
  /// view at `vid` reads may be released; such a view must not be read.
  bool Covers(Vid vid) const {
    std::lock_guard<std::mutex> g(mu_);
    return vid >= horizon_;
  }

  /// The release bound: min(published, oldest live snapshot). The single
  /// definition every trim, prune and reclaim site must use — a divergent
  /// copy could drop state a live snapshot still needs. Refreshes the
  /// cached hint.
  Vid Watermark(const std::atomic<Vid>& published) {
    std::lock_guard<std::mutex> g(mu_);
    return RefreshLocked(published.load(std::memory_order_acquire));
  }

  /// Opportunistic hint refresh off the critical path (try_lock — losing
  /// the race to readers just means the next caller refreshes it).
  void TryRefresh(const std::atomic<Vid>& published) {
    if (std::unique_lock<std::mutex> l(mu_, std::try_to_lock); l.owns_lock()) {
      RefreshLocked(published.load(std::memory_order_acquire));
    }
  }

  /// Cached lower bound of Watermark(): hot paths read this atomic instead
  /// of taking the reader-hammered mutex.
  Vid hint() const { return hint_.load(std::memory_order_relaxed); }

 private:
  Vid RefreshLocked(Vid published) {
    const Vid watermark =
        live_.empty() ? published : std::min(published, live_.begin()->first);
    horizon_ = std::max(horizon_, watermark);
    hint_.store(watermark, std::memory_order_relaxed);
    return watermark;
  }
  void ReleaseLocked(Vid vid) {
    auto it = live_.find(vid);
    if (it != live_.end() && --it->second == 0) live_.erase(it);
  }

  mutable std::mutex mu_;
  std::map<Vid, int> live_;  // vid -> open count
  Vid horizon_ = 0;          // highest watermark handed out
  std::atomic<Vid> hint_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_COMMON_SNAPSHOT_REGISTRY_H_
