#ifndef POLARDB_IMCI_REPLICATION_PIPELINE_H_
#define POLARDB_IMCI_REPLICATION_PIPELINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/thread_pool.h"
#include "imci/checkpoint.h"
#include "imci/column_index.h"
#include "log/log_store.h"
#include "redo/redo_writer.h"
#include "replication/logical_dml.h"
#include "replication/redo_parser.h"
#include "rowstore/buffer_pool.h"

namespace imci {

struct ReplicationOptions {
  int parse_parallelism = 4;   // Phase#1 workers (page-grained)
  int apply_parallelism = 4;   // Phase#2 workers (row-grained)
  size_t chunk_records = 8192; // max records fetched per poll
  /// DML count at which a transaction buffer is pre-committed (§5.5).
  size_t large_txn_dml_threshold = 8192;
  /// Commit-Ahead Log Shipping (§5.1). When false (ablation), a committed
  /// transaction's DMLs are delivered one poll cycle late, emulating
  /// ship-at-commit propagation.
  bool commit_ahead = true;
  uint64_t poll_timeout_us = 2000;
  /// Poll iterations between maintenance passes (compaction / VID-map
  /// dropping / reclamation).
  int maintenance_interval = 64;
  bool enable_compaction = true;
  /// Bounded retry on transient source-read failures (IOError/Busy): the
  /// coordinator retries with exponential backoff, then declares the
  /// pipeline wedged. Corruption wedges immediately — retrying re-reads
  /// the same torn bytes.
  int max_transient_retries = 5;
  uint64_t retry_backoff_us = 200;        // first retry; doubles per attempt
  uint64_t retry_backoff_cap_us = 20'000;
};

/// The RO node's update-propagation engine (§5): a coordinator thread tails
/// the shared REDO log (woken by the RW's LSN broadcasts — CALS), runs
/// Phase#1 (parallel physical replay + DML reconstruction) as entries
/// arrive, buffers DMLs per transaction, and on each commit decision runs
/// Phase#2 (parallel row-grained apply into the column indexes, batched
/// commit of the applied VID).
///
/// Maintenance (compaction, insert-VID-map dropping, retired group
/// reclamation) runs in the coordinator thread between batches, which
/// serializes it with Phase#2 as ColumnIndex::CompactGroup requires.
class ReplicationPipeline {
 public:
  /// `name` (the owning node's) tags the coordinator thread for fault
  /// injection (fault::ScopedContext): chaos tests target exactly one
  /// node's replication I/O by arming a fault point with that scope.
  /// `replica_engine` is the node's row replica, whose version chains
  /// Phase#1 installs into and Phase#2 stamps.
  ReplicationPipeline(PolarFs* fs, const Catalog* catalog,
                      BufferPool* ro_pool, ImciStore* imci, ThreadPool* pool,
                      ReplicationOptions options, std::string name,
                      RowStoreEngine* replica_engine);
  ~ReplicationPipeline();

  /// Sets the replay position of a freshly booted state: the log is
  /// consumed past `lsn` and the column state is at commit point `vid`.
  /// `vid` is also the checkpoint filter — Phase#2 skips transactions with
  /// commit VID <= `vid`, whose effects the booted state already holds.
  /// Call once, before Start or PollOnce.
  void Seed(Lsn lsn, Vid vid);

  /// Starts the background coordinator, resuming from the cursors (as
  /// seeded, or wherever earlier runs advanced them).
  void Start();
  void Stop();

  /// One synchronous poll iteration (used by tests and by CatchUp).
  Status PollOnce();
  /// Polls until everything appended up to `target_lsn` has been applied.
  Status CatchUp(Lsn target_lsn);

  /// Blocks until `until()` holds or `timeout_us` passes; returns its last
  /// answer. `until` is re-checked on every NotifyWaiters: after each chunk
  /// publishes read_lsn (and applied_vid), and on Wedge and Stop. State it
  /// reads that changes elsewhere needs a NotifyWaiters of its own.
  template <typename Until>
  bool Await(Until until, uint64_t timeout_us) {
    // Far beyond any real wait; keeps the deadline arithmetic in range for
    // a timeout taken from the wire.
    constexpr uint64_t kMaxWaitUs = uint64_t{1} << 40;
    std::unique_lock<std::mutex> l(progress_mu_);
    return progress_cv_.wait_for(
        l, std::chrono::microseconds(std::min(timeout_us, kMaxWaitUs)),
        until);
  }
  /// Wakes every Await caller to re-check its condition.
  void NotifyWaiters();

  /// Commit point visible to queries on this node (read view VID).
  Vid applied_vid() const { return applied_vid_.load(std::memory_order_acquire); }
  /// The applied commit point as an atomic, for SnapshotRegistry::Open —
  /// readers sample it under the registry mutex so maintenance can never
  /// release state under a snapshot being registered.
  const std::atomic<Vid>& applied_vid_ref() const { return applied_vid_; }
  /// LSN up to which the log has been consumed.
  Lsn read_lsn() const { return read_lsn_.load(std::memory_order_acquire); }
  /// The redo log's durable watermark — the highest LSN this pipeline will
  /// ever consume. The written-but-unfsynced tail beyond it is retractable
  /// (a failed batch fsync trims it), so replicas never build state on it.
  Lsn source_durable_lsn() const { return redo_log_->durable_lsn(); }
  /// LSN of the last applied commit record.
  Lsn applied_lsn() const { return applied_lsn_.load(std::memory_order_acquire); }
  /// Durable-but-unconsumed backlog (Fig. 14's "LSN delay"), bounded by
  /// the consumable ceiling (source_durable_lsn).
  uint64_t LsnDelay() const;

  LatencyHistogram* vd_histogram() { return &vd_; }
  RedoParser* parser() { return &parser_; }

  uint64_t applied_ops() const { return applied_ops_.load(); }
  uint64_t committed_txns() const { return committed_txns_.load(); }
  uint64_t precommitted_txns() const { return precommitted_txns_.load(); }
  uint64_t compactions() const { return compactions_.load(); }

  // --- Health (the honest-failure surface the cluster monitor reads) ------

  /// True once the coordinator gave up: a source-read failure survived the
  /// bounded retries (or was Corruption). A wedged pipeline stops consuming
  /// the log — it never silently stalls with running_ still true — and
  /// stays wedged until the node is torn down or Start() runs again.
  bool wedged() const { return wedged_.load(std::memory_order_acquire); }
  /// The failure that wedged the pipeline (OK while healthy).
  Status wedge_reason() const;
  /// Wall-clock (NowMicros) of the coordinator's last liveness tick; a
  /// stale value with running_ true means the thread is hung, which the
  /// cluster monitor treats like a wedge.
  uint64_t heartbeat_us() const {
    return heartbeat_us_.load(std::memory_order_acquire);
  }
  /// Transient read failures absorbed by retry (did not wedge).
  uint64_t transient_retries() const {
    return transient_retries_.load(std::memory_order_relaxed);
  }
  /// Most recent coordinator-driven checkpoint failure (OK when none): a
  /// failed checkpoint must not wedge replication, but must not vanish.
  Status last_checkpoint_error() const;

  /// Takes a checkpoint at the current applied state (RO-leader duty, §7):
  /// flushes this node's row-store pages (with their page LSNs), then
  /// persists all column indexes at CSN = applied_vid plus the in-flight
  /// transaction buffers (CALS has already shipped their DMLs; the flushed
  /// pages make those records unreplayable for a booting node, so the
  /// buffers must travel with the checkpoint). start_lsn is therefore
  /// exactly read_lsn. Runs quiesced: call from the coordinator thread
  /// context or while the pipeline is stopped; PollOnce-driven tests may
  /// call it directly between polls.
  Status TakeCheckpoint(uint64_t ckpt_id);

  /// Restores in-flight transaction buffers persisted by a checkpoint.
  /// Call after Boot's LoadLatest and before Start/PollOnce. Also
  /// re-creates each in-flight transaction's row-replica version chains
  /// from the checkpoint-carried committed pre-images, so readers gate the
  /// flushed pages' mid-transaction effects until the replayed log
  /// delivers the commit decisions.
  Status RestoreInflight(const std::string& blob);

  /// Requests the coordinator to take a checkpoint at the next boundary.
  void RequestCheckpoint(uint64_t ckpt_id);

 private:
  struct CommittedTxn {
    std::shared_ptr<TxnBuffer> buffer;
    Vid vid = 0;
    uint64_t commit_ts_us = 0;
    Lsn lsn = 0;
  };

  void CoordinatorLoop();
  /// Latches the terminal failure state and stops the coordinator.
  void Wedge(Status reason);
  /// Phase#1 and Phase#2 over the next chunk of the durable redo log.
  Status ReplayChunk();
  void DeliverDmls(std::vector<LogicalDml>&& dmls);
  void MaybePreCommit(const std::shared_ptr<TxnBuffer>& buf);
  void ApplyBatch(std::vector<CommittedTxn>& batch);
  void RunMaintenance();
  std::string SerializeInflight() const;
  /// Phase#2 commit decision for the row replica: stamps the transaction's
  /// in-flight versions with its commit VID. Runs before applied_vid_
  /// advances past `vid`, so a reader pinned at the new applied point
  /// always finds the versions stamped.
  void StampReplicaVersions(const TxnBuffer& buf, Vid vid);
  /// Replicated abort: drops the transaction's in-flight versions (its page
  /// effects were already physically reverted by the RW's compensation
  /// records, which precede the abort record in the log).
  void DropReplicaVersions(const TxnBuffer& buf);

  PolarFs* fs_;
  const Catalog* catalog_;
  BufferPool* ro_pool_;
  ImciStore* imci_;
  ThreadPool* pool_;
  RowStoreEngine* replica_engine_;
  ReplicationOptions options_;
  std::string name_;
  LogStore* redo_log_;  // the log this pipeline tails
  RedoParser parser_;
  RedoReader reader_;

  std::unordered_map<Tid, std::shared_ptr<TxnBuffer>> txn_buffers_;
  std::vector<CommittedTxn> delayed_;  // CALS-off emulation

  std::atomic<Lsn> read_lsn_{0};
  std::atomic<Lsn> applied_lsn_{0};
  std::atomic<Vid> applied_vid_{0};
  Vid seed_vid_ = 0;  // the checkpoint filter (see Seed)
  std::atomic<uint64_t> applied_ops_{0};
  std::atomic<uint64_t> committed_txns_{0};
  std::atomic<uint64_t> precommitted_txns_{0};
  std::atomic<uint64_t> compactions_{0};
  LatencyHistogram vd_;

  std::thread coordinator_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> checkpoint_request_{0};
  int polls_since_maintenance_ = 0;

  std::atomic<bool> wedged_{false};
  std::atomic<uint64_t> heartbeat_us_{0};
  std::atomic<uint64_t> transient_retries_{0};
  mutable std::mutex health_mu_;
  Status wedge_reason_;           // guarded by health_mu_
  Status last_checkpoint_error_;  // guarded by health_mu_

  std::mutex progress_mu_;  // Await's condition checks vs. NotifyWaiters
  std::condition_variable progress_cv_;
};

}  // namespace imci

#endif  // POLARDB_IMCI_REPLICATION_PIPELINE_H_
