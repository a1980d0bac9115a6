#ifndef POLARDB_IMCI_ARCHIVE_ARCHIVE_H_
#define POLARDB_IMCI_ARCHIVE_ARCHIVE_H_

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "archive/snapshot_store.h"
#include "common/status.h"
#include "common/types.h"
#include "log/log_store.h"

namespace imci {

class PolarFs;

/// One sealed segment recorded in a log's archive manifest.
struct ArchivedSegment {
  Lsn first = 0;
  Lsn last = 0;
  uint64_t bytes = 0;         // archived segment file size
  uint64_t payload_hash = 0;  // hash of the file, re-verified on every read
};

/// The archive tier behind point-in-time recovery. LogStore::Truncate hands
/// every sealed segment here *before* deleting its file (the
/// seal-before-truncate invariant: once a sink is attached, recycling never
/// destroys history the archive has not absorbed — a failed seal simply
/// leaves the segment live). Each log keeps a checksummed manifest of its
/// archived segment ranges; reads re-verify both the manifest trailer and
/// every segment's payload hash, so a torn or truncated archive surfaces as
/// Corruption instead of a silent partial replay.
///
/// The paired SnapshotStore (snapshots()) registers checkpoint anchors;
/// together they implement Cluster::RestoreToLsn (nearest anchor + archived
/// suffix + live tail).
///
/// Layout: archive/log/<name>/seg_<first-lsn> + archive/log/<name>/MANIFEST.
class ArchiveStore : public ArchiveSink {
 public:
  explicit ArchiveStore(PolarFs* fs) : fs_(fs), snapshots_(fs) {}

  /// Absorbs one sealed segment (called by LogStore::Truncate under its
  /// lock, before the segment file is deleted). Idempotent per (log, first);
  /// rejects gaps and range mismatches — the archive only ever holds a
  /// contiguous recycled prefix of each log.
  Status Seal(const std::string& log_name, Lsn first, Lsn last,
              const std::string& framed) override;

  /// The archived segments of `log_name`, in LSN order, verified against
  /// the manifest checksum. NotFound when the log has never been recycled.
  Status ListSegments(const std::string& log_name,
                      std::vector<ArchivedSegment>* out) const;

  /// Highest archived LSN of `log_name` (0 when nothing is archived).
  Lsn archived_upto(const std::string& log_name) const;

  /// Reads archived record payloads with LSN in (from, to] into `out`
  /// (appended in order); `*last` receives the highest LSN delivered (==
  /// `from` when the archive holds nothing past it). Stops cleanly where
  /// the archive ends — the caller continues from the live log — but a torn
  /// manifest, a corrupt segment, or a gap inside the archived range is
  /// Corruption, never a silent skip.
  Status ReadRecords(const std::string& log_name, Lsn from, Lsn to,
                     std::vector<std::string>* out, Lsn* last) const;

  SnapshotStore* snapshots() { return &snapshots_; }
  const SnapshotStore* snapshots() const { return &snapshots_; }

  /// Deletes the GC-eligible prefix of `log_name` (segment files + manifest
  /// entries): the archived segments no restore can need any more, those
  /// entirely below the snapshot GC floor (smallest start_lsn among
  /// retained anchors — see SnapshotStore::GcFloorLsn). Nothing is eligible
  /// until a retention cap actually drops an anchor whose start was 0. `*dropped` (optional) receives the segment count. Safe with
  /// concurrent Seal calls; the surviving manifest stays contiguous.
  Status DropGcEligibleSegments(const std::string& log_name,
                                size_t* dropped = nullptr);

  uint64_t sealed_segments() const { return sealed_segments_.load(); }
  uint64_t sealed_bytes() const { return sealed_bytes_.load(); }

  static std::string SegmentFileName(const std::string& log_name, Lsn first);
  static std::string ManifestFileName(const std::string& log_name);

 private:
  Status LoadManifest(const std::string& log_name,
                      std::vector<ArchivedSegment>* out) const;
  Status StoreManifestLocked(const std::string& log_name,
                             const std::vector<ArchivedSegment>& segs);
  /// Reads + verifies one archived segment file against its manifest entry
  /// and decodes the frames (one payload per LSN in [first, last]).
  Status DecodeSegment(const std::string& log_name, const ArchivedSegment& seg,
                       std::vector<std::string>* payloads) const;

  PolarFs* fs_;
  SnapshotStore snapshots_;
  std::mutex mu_;  // serializes Seal's manifest read-modify-write
  std::atomic<uint64_t> sealed_segments_{0};
  std::atomic<uint64_t> sealed_bytes_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_ARCHIVE_ARCHIVE_H_
