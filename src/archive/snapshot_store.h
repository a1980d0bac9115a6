#ifndef POLARDB_IMCI_ARCHIVE_SNAPSHOT_STORE_H_
#define POLARDB_IMCI_ARCHIVE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace imci {

class PolarFs;

/// Restore anchors for point-in-time recovery. Every completed checkpoint
/// (and the post-load base image, anchor id 0) is registered here as a
/// self-contained snapshot of the shared page store, the row-store control
/// files (registry, base_lsn) and — for checkpoint anchors — the
/// column-index checkpoint directory, all under a checksummed listing.
///
/// An anchor shares bytes instead of copying them: PolarFs pages and files
/// are immutable shared buffers (see polarfs.h), so Register links each
/// live buffer under the anchor's directory. Later flushes swap new buffers
/// into the live store and leave the linked ones alone, so "the pages as of
/// checkpoint N" stay intact while costing only the pages that changed
/// since. Dropping an anchor deletes its links, which frees every buffer no
/// live name or other anchor still holds.
///
/// Cluster::RestoreToLsn picks the anchor with the largest start_lsn at or
/// below the target LSN, links its buffers into a fresh PolarFs (Restore),
/// and replays the archived + live redo suffix on top.
///
/// Layout (all names in the owning PolarFs's file namespace):
///   archive/snap/<ckpt_id>/page/<page_id>  link to a page image
///   archive/snap/<ckpt_id>/file/<name>     link to file <name>
///   archive/snap/<ckpt_id>/MANIFEST        listing: size + hash per link
///   archive/snap/INDEX                     checksummed anchor list
class SnapshotStore {
 public:
  struct Anchor {
    uint64_t ckpt_id = 0;  // 0 == the post-load base image
    Vid csn = 0;           // checkpoint CSN (0 for the base anchor)
    Lsn start_lsn = 0;     // redo LSN replay must start from (exclusive)
    uint64_t bytes = 0;    // bytes the anchor restores (pages + files),
                           // mostly shared with the live store
  };

  /// An anchor's MANIFEST: every linked buffer with the size and hash it
  /// had at Register time. Restore verifies each link against its entry.
  struct Listing {
    struct Entry {
      uint64_t size = 0;
      uint64_t hash = 0;
    };
    uint64_t ckpt_id = 0;
    Vid csn = 0;
    Lsn start_lsn = 0;
    std::vector<std::pair<PageId, Entry>> pages;
    std::vector<std::pair<std::string, Entry>> files;

    /// Serialized listing with a hash trailer.
    std::string Encode() const;
    /// Corruption on a bad trailer, a short body, or counts the body cannot
    /// hold.
    static Status Decode(std::string_view blob, Listing* out);
  };

  explicit SnapshotStore(PolarFs* fs) : fs_(fs) {}

  /// Retention cap: keep only the newest `keep` anchors (by checkpoint id);
  /// 0 (default) keeps everything. Enforced at Register time — when a new
  /// anchor pushes the count over the cap, the oldest anchors' links are
  /// deleted and the index rewritten. Dropping anchors raises the GC
  /// floor (GcFloorLsn), which is what makes old archived log segments
  /// eligible for reclamation.
  void set_retention(size_t keep) { retention_ = keep; }
  size_t retention() const { return retention_; }

  /// The smallest start_lsn among retained anchors: no restore can ever
  /// replay log at or below it (every anchor starts at or above). 0 — the
  /// conservative "nothing reclaimable" floor — when no anchor exists or
  /// the oldest anchor starts at 0.
  Lsn GcFloorLsn() const;

  /// Links the current shared state in as a restore anchor. Idempotent per
  /// ckpt_id (a re-registration replaces the anchor). Call quiesced — at a
  /// checkpoint boundary, right after the page flush — so the linked pages
  /// form one consistent cut.
  Status Register(uint64_t ckpt_id, Vid csn, Lsn start_lsn);

  /// The anchor with the largest start_lsn <= `lsn` (ties broken toward the
  /// newer checkpoint — less log to replay). NotFound when every anchor
  /// starts above `lsn`.
  Status FindAnchor(Lsn lsn, Anchor* out) const;

  /// All registered anchors (verified against the index checksum).
  Status Anchors(std::vector<Anchor>* out) const;

  /// Links the anchor's buffers into `dest`: pages, row-store files, and
  /// (for checkpoint anchors) the column checkpoint directory plus a
  /// CURRENT pointer naming it. Verifies every link against its listing
  /// entry — a torn or missing link is Corruption, never a silent partial
  /// restore.
  Status Restore(const Anchor& a, PolarFs* dest) const;

 private:
  static std::string AnchorDir(uint64_t ckpt_id);
  void DropLinks(const std::string& dir);
  Status LoadIndex(std::vector<Anchor>* out) const;
  Status StoreIndexLocked(const std::vector<Anchor>& anchors);

  PolarFs* fs_;
  std::mutex mu_;  // serializes Register's index read-modify-write
  size_t retention_ = 0;  // newest anchors kept; 0 == unbounded
};

}  // namespace imci

#endif  // POLARDB_IMCI_ARCHIVE_SNAPSHOT_STORE_H_
