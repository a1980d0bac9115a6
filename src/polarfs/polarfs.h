#ifndef POLARDB_IMCI_POLARFS_POLARFS_H_
#define POLARDB_IMCI_POLARFS_POLARFS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace imci {

class ArchiveStore;
class LogStore;

/// An immutable stored byte buffer. Every page image and file in a PolarFs
/// is one; a write swaps in a new buffer instead of overwriting, so a holder
/// of the old one (a restore anchor, a restored PolarFs) keeps its bytes —
/// the copy-on-write sharing of a storage-level snapshot.
using Blob = std::shared_ptr<const std::string>;

/// Simulation of PolarFS (§3.1), the shared distributed file system that all
/// computation nodes attach to. It is the *only* channel between the RW node
/// and RO nodes: REDO log entries, binlog records, data pages, and
/// checkpoints all flow through here, exactly as in the paper's architecture
/// (Figure 2/5).
///
/// Substitution note (DESIGN.md §2): the real PolarFS is a user-space
/// distributed filesystem over RDMA. This in-process equivalent preserves the
/// protocol-visible behaviour — named blobs, page persistence, append-only
/// log segments — and adds fsync / IO accounting plus optional injected
/// latency so the perturbation experiments (Fig. 11) measure the same costs
/// the paper attributes to extra logical logging.
///
/// Durable logging itself lives in `LogStore` (src/log): PolarFs only hosts
/// the per-name log directory (`log(name)`), the segment files, and the
/// fsync accounting the log stores charge against.
///
/// Storage model: pages and files are shared immutable buffers (`Blob`).
/// The `Blob` overloads of WritePage/WriteFile link an existing buffer under
/// a new name — in this or another PolarFs — without copying it, and the
/// `Blob` overloads of ReadPage/ReadFile hand one out. That is how restore
/// anchors (SnapshotStore) freeze the store: they link the live buffers,
/// and later writes replace rather than mutate them. A page rewritten with
/// identical bytes keeps its buffer, so anchors of an unchanged page share
/// one image. AppendFile extends a file's buffer in place while the buffer
/// has never left this PolarFs, and copies it once after it has, so
/// log-segment appends stay amortized O(1).
///
/// Failure model: every I/O entry point is a named fault point
/// (common/fault.h) — `polarfs.fsync`, `polarfs.write_page`,
/// `polarfs.read_page`, `polarfs.write_file`, `polarfs.append_file`,
/// `polarfs.read_file` — so chaos tests can make shared storage fail with
/// IOError, tear a write short (reported as success, caught later by
/// checksums), spike latency, or crash the node. Unarmed points cost one
/// relaxed atomic load.
///
/// Clock/yield discipline: ALL simulated device time — configured fsync
/// latency and injected latency spikes alike — is served by one
/// primitive, `YieldFor` (common/clock.h): a deadline wait that yields the
/// CPU instead of sleeping or spinning. This is a hard requirement on
/// 1-core runners: a blocking "device wait" must let other threads run
/// meanwhile (committers must be able to enqueue into the next group-commit
/// batch while the leader's fsync is in flight), and timed sleeps would
/// wake on kernel timer slack, contaminating A/B comparisons like Fig. 11.
/// Never introduce a second wait discipline next to it.
class PolarFs {
 public:
  struct Options {
    /// Simulated latency added to every fsync (microseconds). Models the
    /// durable-write round trip the paper's Binlog baseline pays twice.
    uint32_t fsync_latency_us = 0;
    /// Soft segment size for logs opened through log() (see LogStore).
    size_t log_segment_bytes = 1 << 20;
    /// Point-in-time-recovery retention: keep only the newest N snapshot
    /// anchors (SnapshotStore::set_retention). 0 (default) keeps every
    /// anchor. Dropping anchors raises the archive GC floor, making the
    /// archived log prefix below it reclaimable
    /// (ArchiveStore::DropGcEligibleSegments).
    size_t snapshot_retention = 0;
  };

  PolarFs();
  explicit PolarFs(Options options);
  ~PolarFs();

  // --- Log directory -------------------------------------------------------
  // Named append-only logs ("redo", "binlog", ...), each a shared segmented
  // LogStore over this filesystem's segment files. One instance per name is
  // shared by every attached node, which is what carries the notify-by-LSN
  // broadcast (§5.1, CALS) across nodes.

  /// Opens (recovering if needed) or returns the shared log named `name`.
  LogStore* log(const std::string& name);

  /// Re-runs recovery on every open log from its segment files, as a
  /// restarting cluster would — used to simulate crashes after tests
  /// mutilate segment files, and to clear a fsync-poisoned log back to its
  /// durable watermark. LogStore pointers remain valid. Reports the first
  /// recovery failure (every log is still reopened).
  Status ReopenLogs();

  /// Accounts one fsync (with simulated latency). Called by group-commit
  /// batch leaders, once per batch (LogStore::SyncTo). Fails (fault point
  /// `polarfs.fsync`) with IOError when injected — the log then fails the
  /// whole batch and poisons itself.
  Status SyncLog();

  /// Accounts one *control-plane* fsync (archive manifests, snapshot
  /// indexes). Same simulated latency as SyncLog, separate counter so the
  /// commit-path fsyncs-per-commit metric stays undiluted. Fault point
  /// `polarfs.fsync.control`.
  Status SyncControl();

  // --- Archive tier ---------------------------------------------------------

  /// The shared archive (lazily created). Every log opened through log()
  /// gets it attached as its recycle sink (seal-before-truncate), enabling
  /// point-in-time recovery and post-recycle scale-out.
  ArchiveStore* archive();

  // --- Page store ----------------------------------------------------------
  // Persistent home of row-store pages (the RW checkpoint / flush target,
  // and what a booting RO reads).

  Status WritePage(PageId id, std::string image);
  /// Links `image` as page `id` without copying it.
  Status WritePage(PageId id, Blob image);
  /// The page's shared buffer, without copying it.
  Status ReadPage(PageId id, Blob* image) const;
  std::vector<PageId> ListPages() const;

  // --- File store ----------------------------------------------------------
  // Named blobs: column-index checkpoints, pack spills, log segments.

  Status WriteFile(const std::string& name, std::string data);
  /// Links `data` under `name` without copying it.
  Status WriteFile(const std::string& name, Blob data);
  /// Appends to a named blob, creating it when absent (POSIX O_APPEND — the
  /// write path of log segments).
  Status AppendFile(const std::string& name, const std::string& data);
  Status ReadFile(const std::string& name, std::string* data) const;
  /// The file's shared buffer, without copying it.
  Status ReadFile(const std::string& name, Blob* data) const;
  Status DeleteFile(const std::string& name);
  std::vector<std::string> ListFiles(const std::string& prefix) const;

  // --- Accounting ----------------------------------------------------------
  // Fsync accounting is per-*batch*: SyncLog() fires once per group-commit
  // leader flush, so fsync_count() counts batches, not commits. The pair
  // below aggregates the group-commit stats of every open log so callers can
  // derive fsyncs-per-commit (= commit_batches/batched_commits) and the mean
  // batch size (= batched_commits/commit_batches) without walking the logs.
  uint64_t fsync_count() const { return fsyncs_.load(); }
  /// Group-commit fsync batches issued across all open logs.
  uint64_t commit_batches() const;
  /// Durable commits those batches served across all open logs.
  uint64_t batched_commits() const;
  uint64_t log_bytes() const { return log_bytes_.load(); }
  uint64_t page_reads() const { return page_reads_.load(); }
  uint64_t page_writes() const { return page_writes_.load(); }
  /// Bytes held by the page and file stores, counting each shared buffer
  /// once however many pages, files and anchor links name it.
  uint64_t stored_bytes() const;
  void AccountLogBytes(uint64_t n) {
    log_bytes_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  Status PutFile(const std::string& name, Blob data, bool lent);

  Options options_;

  mutable std::mutex logs_mu_;
  std::map<std::string, std::unique_ptr<LogStore>> logs_;

  mutable std::mutex archive_mu_;
  std::unique_ptr<ArchiveStore> archive_;

  mutable std::mutex page_mu_;
  std::unordered_map<PageId, Blob> pages_;

  struct File {
    Blob data;
    /// Set once `data` is shared: handed out by ReadFile or linked in by
    /// WriteFile(Blob). While clear, the map holds the only reference and
    /// `data` came from this PolarFs, so AppendFile may extend it in place.
    mutable bool lent = false;
  };
  mutable std::mutex file_mu_;
  std::map<std::string, File> files_;

  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> log_bytes_{0};
  mutable std::atomic<uint64_t> page_reads_{0};
  std::atomic<uint64_t> page_writes_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_POLARFS_POLARFS_H_
