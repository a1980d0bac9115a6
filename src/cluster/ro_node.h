#ifndef POLARDB_IMCI_CLUSTER_RO_NODE_H_
#define POLARDB_IMCI_CLUSTER_RO_NODE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "plan/optimizer.h"
#include "replication/pipeline.h"

namespace imci {

struct RoNodeOptions {
  ReplicationOptions replication;
  ColumnIndexOptions imci;
  /// Column-executor workers. Also the per-query token budget: concurrent
  /// analytics queries share this many tokens, each query's parallelism
  /// clamped to its grant (minimum 1 — a query is never refused, it
  /// degrades toward serial).
  int exec_threads = 8;
  int default_parallelism = 8;
  /// Intra-node routing threshold: estimated row-engine rows-touched above
  /// which the column engine is chosen (§6.1).
  double row_cost_threshold = 20000.0;
  /// Morsel size for column scans, in row groups per dispatch.
  int morsel_row_groups = 1;
};

/// A read-only node (§3.1): dual-format storage — a row-store replica (its
/// buffer pool, maintained by Phase#1) plus in-memory column indexes — and
/// dual execution engines with cost-based intra-node routing.
class RoNode {
 public:
  RoNode(std::string name, PolarFs* fs, Catalog* catalog,
         RoNodeOptions options);
  ~RoNode();

  /// Boots the node: attaches row tables from the shared registry, then
  /// either fast-recovers column indexes from the latest checkpoint (§7) or
  /// rebuilds them by scanning the row store (the DDL path, §3.3). Leaves
  /// the pipeline's cursors at the booted state's replay position.
  Status Boot();

  /// Starts/stops the background replication pipeline; a restart resumes
  /// from the pipeline's cursors.
  void StartReplication();
  void StopReplication();
  /// Synchronously applies everything currently durable in the log. With
  /// replication running it waits for the pipeline through the same loop
  /// as WaitApplied, under a fixed deadline: a wedge returns the wedge
  /// reason, another health loss or the deadline returns Busy.
  Status CatchUpNow();
  /// Bounded wait until the node has applied `vid`, woken by the
  /// pipeline's progress notifications. Returns Busy when the node turns
  /// unhealthy or `timeout_us` passes.
  Status WaitApplied(Vid vid, uint64_t timeout_us);

  // --- Query execution ----------------------------------------------------

  /// Runs on the column engine at a snapshot opened at the node's applied
  /// commit point in its snapshot registry, so maintenance releases nothing
  /// the plan reads. When `dop_used` is non-null it receives the
  /// parallelism actually granted after token clamping (surfaced by the
  /// bench scheduler counters).
  Status ExecuteColumn(const LogicalRef& plan, std::vector<Row>* out,
                       int parallelism = 0, int* dop_used = nullptr);
  /// Runs on the row engine against the row-store replica, at a snapshot
  /// pinned to the node's applied commit point — exactly like
  /// RwNode::ExecuteSnapshot: Phase#1 installs replayed page changes as
  /// in-flight versions and Phase#2 stamps them at the commit decision, so
  /// a row scan can never observe a transaction mid-apply. The pin is
  /// registered with the engine's snapshot registry so maintenance pruning
  /// keeps every version the plan can still read.
  Status ExecuteRow(const LogicalRef& plan, std::vector<Row>* out);
  /// Cost-based intra-node routing (§6.1): row engine for cheap/point
  /// queries, column engine otherwise. A row plan that fails runs on the
  /// column engine; a column plan runs on the row engine only when it cannot
  /// be lowered (NotSupported: a column outside the column index).
  Status Execute(const LogicalRef& plan, std::vector<Row>* out,
                 EngineChoice* chosen = nullptr);

  /// Refreshes optimizer statistics by sampling the column indexes.
  void RefreshStats();

  /// Crash-recovery epilogue (ARIES undo): after replaying a *final* log —
  /// one that ends at a crash's durable watermark and will receive no
  /// further records — rolls the row replica back to the durable commit
  /// prefix: page effects of transactions whose commit decision never made
  /// it into the log are physically reverted from their version-chain
  /// images. The commit-gated column state needs no such pass (Phase#2
  /// only ever surfaced decided transactions). Never call this against a
  /// live RW: the pipeline would still deliver those decisions. Returns the
  /// number of versions undone.
  size_t RecoverRowReplica();

  // --- State --------------------------------------------------------------

  const std::string& name() const { return name_; }
  Vid applied_vid() const { return pipeline_.applied_vid(); }
  Lsn applied_lsn() const { return pipeline_.applied_lsn(); }
  uint64_t LsnDelay() const { return pipeline_.LsnDelay(); }
  bool replicating() const { return replicating_.load(); }

  /// One health sample, as read by the cluster's fleet monitor.
  struct Health {
    bool replicating = false;
    bool wedged = false;         // pipeline hit a terminal failure
    Status wedge_reason;         // OK unless wedged
    Status checkpoint_error;     // last failed leader checkpoint, else OK
    uint64_t apply_lag = 0;      // LsnDelay: shipped-but-unconsumed backlog
    uint64_t heartbeat_age_us = 0;  // staleness of the coordinator's tick
  };
  Health health() const;

  /// Routable: replicating, not wedged, not retired (leaving the fleet).
  bool healthy() const {
    return replicating_.load() && !retired_.load() && !pipeline_.wedged();
  }
  /// Marks the node as leaving the fleet: pickers skip it and strong-read
  /// waiters bail out, so RemoveRoNode's session drain terminates.
  void Retire() {
    retired_.store(true);
    pipeline_.NotifyWaiters();
  }
  bool retired() const { return retired_.load(); }

  bool is_leader() const { return leader_.load(); }
  void set_leader(bool on) { leader_.store(on); }
  /// RO-leader duty: request a checkpoint at the next replication boundary.
  void RequestCheckpoint(uint64_t ckpt_id) {
    pipeline_.RequestCheckpoint(ckpt_id);
  }

  int active_sessions() const { return active_sessions_.load(); }
  void EnterSession() { active_sessions_.fetch_add(1); }
  void LeaveSession() { active_sessions_.fetch_sub(1); }

  const RoNodeOptions& options() const { return options_; }
  ReplicationPipeline* pipeline() { return &pipeline_; }
  ImciStore* imci() { return &imci_; }
  RowStoreEngine* engine() { return &engine_; }
  StatsCollector* stats() { return &stats_; }
  ThreadPool* exec_pool() { return &exec_pool_; }
  QueryTokenLedger* query_tokens() { return &query_tokens_; }

 private:
  friend class FragmentService;

  Status RebuildFromRowStore();
  /// Blocks until `done()` holds (OK), the node turns unhealthy or
  /// `timeout_us` passes (Busy).
  Status WaitUntil(const std::function<bool()>& done, uint64_t timeout_us);
  /// Runs `root`, the column lowering of `plan`, at `vid`, which the caller
  /// holds in the node's snapshot registry: sizes the parallelism
  /// (`parallelism` if positive, else ChooseDop), clamps it to a
  /// query-token grant and executes into `out`'s batches.
  Status RunColumnAt(const LogicalRef& plan, const PhysOpRef& root, Vid vid,
                     int parallelism, RowSet* out, int* dop_used);

  std::string name_;
  PolarFs* fs_;
  Catalog* catalog_;
  RoNodeOptions options_;
  RowStoreEngine engine_;
  ImciStore imci_;
  ThreadPool exec_pool_;
  QueryTokenLedger query_tokens_;
  ThreadPool repl_pool_;
  ReplicationPipeline pipeline_;
  StatsCollector stats_;
  std::atomic<bool> leader_{false};
  std::atomic<bool> replicating_{false};
  std::atomic<bool> retired_{false};
  std::atomic<int> active_sessions_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_CLUSTER_RO_NODE_H_
