#ifndef POLARDB_IMCI_ROWSTORE_MVCC_H_
#define POLARDB_IMCI_ROWSTORE_MVCC_H_

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/types.h"

namespace imci {

/// The cluster-wide MVCC version substrate. Three layers are clients of this
/// file and nothing else keeps version bookkeeping of its own:
///   1. RowTable on the RW node — writers install in-flight versions, Commit
///      stamps them, snapshot readers resolve them;
///   2. the RO replication apply path — Phase#1 physical replay installs the
///      replica's page changes as in-flight versions keyed by the owning
///      transaction, and Phase#2 stamps them at the commit decision, so RO
///      row-engine scans at a pinned snapshot VID can never observe a
///      transaction mid-apply;
///   3. undo — an RW rollback, the retraction of a lost commit, and the
///      ARIES-style boot pass restore each row to the newest committed
///      version older than the writer's own; the chain is the only undo log.
///
/// Storage model: a row's history is an intrusive singly-linked chain of
/// arena-allocated RowVersion nodes, newest first, with the encoded row
/// image inlined after the node header (no per-version heap string). Writers
/// (Install/Stamp/Abort/Prune — externally synchronized by the owner's
/// exclusive latch, exactly as before) publish chain heads and next links
/// with release-stores; snapshot readers traverse with acquire-loads only,
/// inside an ArenaReadGuard, with no latch held. Committed versions are
/// immutable: the stamp word is the only field that ever changes after a
/// node is published, and it changes once (in-flight -> committed).

/// One node of a row's version chain. Allocated in the owning
/// VersionChains' arena; the payload (encoded row image) sits immediately
/// after the header. The 64-bit stamp word encodes the lifecycle:
/// kInflightBit|tid while the writer is in flight (invisible to every
/// snapshot), the commit VID once stamped (visible to snapshots >= it;
/// vid 0 is the all-visible base). Readers load it with acquire so a
/// concurrent stamping writer's transition is seen atomically.
class RowVersion {
 public:
  static constexpr uint64_t kInflightBit = 1ull << 63;

  /// Commit VID (meaningful only when committed; 0 == all-visible base).
  Vid vid() const { return stamp_.load(std::memory_order_acquire); }
  /// Writer TID while in flight, 0 once committed.
  Tid tid() const {
    const uint64_t w = stamp_.load(std::memory_order_acquire);
    return (w & kInflightBit) ? (w & ~kInflightBit) : 0;
  }
  bool committed() const {
    return (stamp_.load(std::memory_order_acquire) & kInflightBit) == 0;
  }
  bool deleted() const { return deleted_; }
  std::string_view image() const {
    return {reinterpret_cast<const char*>(this + 1), image_len_};
  }
  const RowVersion* next() const {
    return next_.load(std::memory_order_acquire);
  }

 private:
  friend class VersionChains;

  RowVersion(uint64_t stamp, bool deleted, std::string_view image,
             uint32_t epoch)
      : stamp_(stamp),
        next_(nullptr),
        image_len_(static_cast<uint32_t>(image.size())),
        epoch_(epoch),
        deleted_(deleted) {
    if (!image.empty()) {
      std::memcpy(reinterpret_cast<char*>(this + 1), image.data(),
                  image.size());
    }
  }

  std::atomic<uint64_t> stamp_;      // kInflightBit|tid, or commit VID
  std::atomic<RowVersion*> next_;    // older version (newest-first chain)
  uint32_t image_len_;
  uint32_t epoch_;                   // arena epoch the node lives in
  bool deleted_;
  // encoded row image follows the header
};

/// Counters describing one MVCC substrate instance (or, summed, a whole
/// engine). All maintained incrementally — snapshotting them is O(1), not
/// O(chains).
struct MvccStats {
  uint64_t chains = 0;
  uint64_t versions = 0;            // live (linked) versions
  uint64_t max_chain_length = 0;
  uint64_t versions_installed = 0;  // cumulative
  uint64_t versions_dropped = 0;    // cumulative (trim/abort/prune/undo)
  uint64_t relocations = 0;         // survivor copies at epoch drops
  uint64_t arena_bytes_live = 0;
  uint64_t arena_bytes_pending = 0;  // retired, awaiting reader grace
  uint64_t arena_bytes_retired = 0;  // cumulative freed
  uint64_t arena_chunks = 0;
  uint64_t epochs_dropped = 0;       // cumulative bulk drops

  void Add(const MvccStats& o) {
    chains += o.chains;
    versions += o.versions;
    max_chain_length = std::max(max_chain_length, o.max_chain_length);
    versions_installed += o.versions_installed;
    versions_dropped += o.versions_dropped;
    relocations += o.relocations;
    arena_bytes_live += o.arena_bytes_live;
    arena_bytes_pending += o.arena_bytes_pending;
    arena_bytes_retired += o.arena_bytes_retired;
    arena_chunks += o.arena_chunks;
    epochs_dropped += o.epochs_dropped;
  }
};

/// An ordered set of per-row version chains over one arena.
///
/// Synchronization contract:
///   - every *mutating* call (Install/Stamp/Abort/Prune/DropInflight) and
///     every call that touches the pk -> chain map (Head, iterators,
///     Resolve, InflightPks, stats) is externally synchronized by the owner
///     (RowTable's table latch — exclusive for mutation, shared for map
///     reads), exactly as before;
///   - chain *traversal* from a harvested head pointer (ResolveChain,
///     walking next()) is safe with no latch at all,
///     provided the caller entered an ArenaReadGuard before harvesting the
///     head. That is the read path the table latch came off of.
///
/// Pruning is two-tier: Stamp trims each touched chain below the snapshot
/// watermark (hot rows stay short between checkpoints), and Prune —
/// checkpoint cadence — additionally seals the arena epoch, relocates the
/// few survivors out of fully-cold epochs, and retires those epochs' chunks
/// in bulk instead of freeing version by version.
class VersionChains {
 public:
  /// One chain's anchor in the map: the atomic head (release-published by
  /// writers, acquire-loaded by readers) plus the writer-maintained length.
  struct ChainRef {
    std::atomic<RowVersion*> head{nullptr};
    uint32_t length = 0;
  };
  using Map = std::map<int64_t, ChainRef>;
  using const_iterator = Map::const_iterator;

  VersionChains() = default;

  /// Appends an in-flight version for `writer` on `pk`. When the pk has no
  /// chain yet and `base_image` is non-null, the chain is seeded with it as
  /// the all-visible base (the pruning invariant guarantees the pre-image a
  /// chainless row shows is below every live snapshot). A transaction
  /// writing the same row again collapses: the previous in-flight node is
  /// unlinked and replaced — one in-flight version per writer, stamped once
  /// at commit.
  void Install(int64_t pk, Tid writer, bool deleted, std::string_view image,
               const std::string* base_image);

  /// Stamps `tid`'s in-flight versions on `pks` with commit VID `vid`, then
  /// opportunistically trims each touched chain below `trim_below` (the
  /// oldest VID any live or future snapshot can read) so hot rows don't
  /// accumulate history between checkpoints. Must happen *before* the
  /// snapshot point the stamping commit publishes advances past `vid`.
  void Stamp(Tid tid, Vid vid, const std::vector<int64_t>& pks,
             Vid trim_below);

  /// Unlinks `tid`'s in-flight versions on `pks` (rollback / replicated
  /// abort). Call after the rows are physically restored so surviving chain
  /// bases match the tree again.
  void Abort(Tid tid, const std::vector<int64_t>& pks);

  /// Unlinks versions already *stamped* with commit VID `vid` on `pks` — the
  /// lost-commit path: the batch fsync that would have made the
  /// commit durable was refused and the log trimmed its record, so the
  /// stamped versions name a commit that no longer exists. Abort() cannot
  /// reach them (it matches the in-flight stamp, and StampCommitLocked has
  /// already overwritten it with the VID). Same unlink discipline as Abort:
  /// each node's own next pointer stays intact, so a concurrent latch-free
  /// reader standing on it continues over a valid suffix.
  void Retract(Vid vid, const std::vector<int64_t>& pks);

  /// Checkpoint pruning: drops all history below `watermark`, erases chains
  /// whose single survivor is the live tree image (or a committed delete of
  /// a key the tree no longer holds), then performs the bulk epoch drop —
  /// seals the arena epoch, relocates surviving nodes out of epochs whose
  /// newest stamped version is at or below `watermark`, retires those
  /// epochs' chunks, and collects any whose reader grace has passed.
  /// Returns versions dropped.
  size_t Prune(Vid watermark);

  /// Point visibility (owner holds its latch at least shared, for the map):
  /// true when `pk` has a chain, in which case `*v` is the newest version
  /// visible at snapshot `s` (nullptr when none is — the row does not exist
  /// at `s`). False means no chain: the caller falls back to the tree
  /// image, which the pruning invariant makes safe.
  bool Resolve(int64_t pk, Vid s, const RowVersion** v) const;

  /// The chain head for `pk`, or nullptr when the row has no chain. Owner
  /// holds its latch at least shared (map access); the returned pointer may
  /// be traversed latch-free under an ArenaReadGuard entered beforehand.
  const RowVersion* Head(int64_t pk) const;

  /// Newest version reachable from `head` visible at snapshot `s`, or
  /// nullptr. Latch-free (acquire-loads only) under an ArenaReadGuard.
  /// `s` = kMaxVid resolves the newest committed (stamped or base) version,
  /// whatever is in flight above it — the undo target of an in-flight
  /// writer.
  static const RowVersion* ResolveChain(const RowVersion* head, Vid s);

  /// PKs whose chain still carries at least one in-flight (unstamped)
  /// entry — the rows the boot-time undo pass must roll back.
  std::vector<int64_t> InflightPks() const;

  /// Unlinks every in-flight entry of `pk`'s chain (any writer), erasing the
  /// chain when nothing committed survives. Returns entries dropped.
  size_t DropInflight(int64_t pk);

  // Ordered read access for scan merging (owner holds its latch shared;
  // heads harvested from the iterators may be traversed latch-free under an
  // ArenaReadGuard).
  const_iterator begin() const { return chains_.begin(); }
  const_iterator end() const { return chains_.end(); }
  const_iterator lower_bound(int64_t pk) const {
    return chains_.lower_bound(pk);
  }
  const_iterator find(int64_t pk) const { return chains_.find(pk); }

  size_t chain_count() const { return chains_.size(); }
  size_t ChainLength(int64_t pk) const;
  /// O(1): maintained incrementally (multiset of lengths), not by walking
  /// every chain.
  size_t MaxChainLength() const;

  /// O(1) counter snapshot (plus arena accounting).
  MvccStats Stats() const;

  const VersionArena& arena() const { return arena_; }

 private:
  RowVersion* NewNode(uint64_t stamp, bool deleted, std::string_view image);
  /// Unlinks everything older than the newest committed version with
  /// VID <= watermark. Returns versions unlinked.
  size_t TrimChainLocked(ChainRef* chain, Vid watermark);
  /// Unlinks every node of `it`'s chain whose stamp word `w` has
  /// `(w & mask) == match`, erasing the chain when nothing survives.
  /// Returns nodes unlinked.
  size_t UnlinkLocked(Map::iterator it, uint64_t mask, uint64_t match);
  void NoteLengthChange(ChainRef* chain, uint32_t new_length);
  void EraseChain(Map::iterator it);

  Map chains_;
  VersionArena arena_;
  std::multiset<uint32_t> lengths_;  // live chain lengths (max = *rbegin)
  uint64_t versions_live_ = 0;
  uint64_t installed_total_ = 0;
  uint64_t dropped_total_ = 0;
  uint64_t relocations_total_ = 0;
};

}  // namespace imci

#endif  // POLARDB_IMCI_ROWSTORE_MVCC_H_
