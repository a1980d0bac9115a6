#include "cluster/ro_node.h"

#include <algorithm>

#include "cluster/rw_node.h"
#include "common/clock.h"

namespace imci {

namespace {
/// Deadline of CatchUpNow's wait on the background pipeline: far above any
/// catch-up a test or bench drives, so reaching it means a stuck pipeline.
constexpr uint64_t kCatchUpTimeoutUs = 60'000'000;
}  // namespace

RoNode::RoNode(std::string name, PolarFs* fs, Catalog* catalog,
               RoNodeOptions options)
    : name_(std::move(name)),
      fs_(fs),
      catalog_(catalog),
      options_(std::move(options)),
      engine_(fs, catalog),
      imci_(engine_.row_snapshots(), options_.imci),
      exec_pool_(options_.exec_threads),
      query_tokens_(options_.exec_threads),
      repl_pool_(std::max(options_.replication.parse_parallelism,
                          options_.replication.apply_parallelism)),
      pipeline_(fs, catalog, engine_.buffer_pool(), &imci_, &repl_pool_,
                options_.replication, name_, &engine_) {}

RoNode::~RoNode() { StopReplication(); }

Status RoNode::WaitUntil(const std::function<bool()>& done,
                         uint64_t timeout_us) {
  if (pipeline_.Await([&] { return done() || !healthy(); }, timeout_us)) {
    return done() ? Status::OK()
                  : Status::Busy("node unhealthy during catch-up");
  }
  return Status::Busy("catch-up timeout");
}

Status RoNode::WaitApplied(Vid vid, uint64_t timeout_us) {
  return WaitUntil([&] { return applied_vid() >= vid; }, timeout_us);
}

Status RoNode::Boot() {
  // Attach the row-store replica.
  std::vector<std::pair<TableId, PageId>> registry;
  IMCI_RETURN_NOT_OK(RowStoreEngine::LoadRegistry(fs_, &registry));
  for (const auto& [table_id, meta_page] : registry) {
    auto schema = catalog_->Get(table_id);
    if (!schema) return Status::Corruption("schema missing for table");
    IMCI_RETURN_NOT_OK(engine_.AttachTable(schema, meta_page));
    // Replica tables need local secondary indexes / row counts for the RO
    // row engine; rebuild them from the attached pages.
    IMCI_RETURN_NOT_OK(
        engine_.GetTable(table_id)->RebuildIndexesFromPages());
  }
  // Column indexes: fast recovery from checkpoint, else rebuild by scan.
  Vid csn = 0;
  Lsn start_lsn = 0;
  uint64_t ckpt_id = 0;
  std::string inflight;
  Status s = ImciCheckpoint::LoadLatest(fs_, *catalog_, &imci_, &csn,
                                        &start_lsn, &ckpt_id, &inflight);
  if (s.ok()) {
    // csn is also the checkpoint filter: transactions already folded into
    // the loaded state must not be re-applied should the replayed range
    // re-read their commit records.
    pipeline_.Seed(start_lsn, csn);
    // Transactions in flight at checkpoint time: their CALS-shipped DMLs
    // precede start_lsn (and are unreplayable past the flushed page LSNs),
    // so the checkpoint carries the buffers themselves.
    IMCI_RETURN_NOT_OK(pipeline_.RestoreInflight(inflight));
  } else if (s.IsNotFound()) {
    Lsn base = 0;
    IMCI_RETURN_NOT_OK(RwNode::ReadBaseLsn(fs_, &base));
    pipeline_.Seed(base, 0);
    IMCI_RETURN_NOT_OK(RebuildFromRowStore());
  } else {
    return s;
  }
  RefreshStats();
  return Status::OK();
}

Status RoNode::RebuildFromRowStore() {
  // §3.3: "issue a consistent read on the row store, scan the checkpoint,
  // and convert it to a column index" — a snapshot scan at the base image
  // (VID 0). The loaded state is visible to every read view.
  for (const auto& schema : catalog_->All()) {
    RowTable* table = engine_.GetTable(schema->table_id());
    if (table == nullptr) continue;
    ColumnIndex* index = imci_.CreateIndex(schema);
    Status inner = Status::OK();
    IMCI_RETURN_NOT_OK(
        table->SnapshotScan(0, [&](int64_t /*pk*/, const Row& row) {
          inner = index->Insert(row, 0);
          return inner.ok();
        }));
    IMCI_RETURN_NOT_OK(inner);
  }
  return Status::OK();
}

void RoNode::StartReplication() {
  if (replicating_.exchange(true)) return;
  pipeline_.Start();
}

void RoNode::StopReplication() {
  if (!replicating_.exchange(false)) return;
  pipeline_.Stop();  // also wakes waiters, which now see !healthy()
}

Status RoNode::CatchUpNow() {
  // Catch up to the *durable* watermark, not the written tail: the pipeline
  // never consumes past it (the unfsynced tail is retractable), so waiting
  // on written LSNs would hang whenever a transaction's eagerly-shipped DML
  // records are still waiting for their first covering batch fsync.
  if (replicating_.load()) {
    // Background pipeline owns the cursor; just wait for it to reach the
    // durable LSN of this call (a steady writer keeps moving the tail) —
    // but never wait on a pipeline that can no longer make progress.
    const Lsn target = pipeline_.source_durable_lsn();
    Status s = WaitUntil([&] { return pipeline_.read_lsn() >= target; },
                         kCatchUpTimeoutUs);
    if (!s.ok() && pipeline_.wedged()) return pipeline_.wedge_reason();
    return s;
  }
  return pipeline_.CatchUp(pipeline_.source_durable_lsn());
}

Status RoNode::ExecuteColumn(const LogicalRef& plan, std::vector<Row>* out,
                             int parallelism, int* dop_used) {
  PhysOpRef root;
  IMCI_RETURN_NOT_OK(LowerToColumnPlan(plan, &imci_, &root));
  // Sampled under the registry mutex: no maintenance pass can release the
  // opened point, so the snapshot is covered by construction.
  const SnapshotRegistry::View view =
      engine_.row_snapshots()->OpenView(pipeline_.applied_vid_ref());
  RowSet set;
  IMCI_RETURN_NOT_OK(
      RunColumnAt(plan, root, view.vid(), parallelism, &set, dop_used));
  *out = ToRows(set);
  return Status::OK();
}

Status RoNode::RunColumnAt(const LogicalRef& plan, const PhysOpRef& root,
                           Vid vid, int parallelism, RowSet* out,
                           int* dop_used) {
  // Degree of parallelism: an explicit caller request wins (bench sweeps,
  // tests); otherwise the optimizer sizes the fan-out to the estimated scan
  // volume. Either way the request is then clamped to this query's token
  // grant, so concurrent analytics queries share the pool's workers instead
  // of each oversubscribing it.
  const int desired =
      parallelism > 0
          ? parallelism
          : ChooseDop(plan, stats_, options_.default_parallelism);
  QueryTokenGrant grant(&query_tokens_, desired);
  if (dop_used != nullptr) *dop_used = grant.tokens();
  ExecContext ctx;
  ctx.pool = &exec_pool_;
  ctx.parallelism = grant.tokens();
  ctx.morsel_row_groups = options_.morsel_row_groups;
  ctx.read_vid = vid;
  return root->Execute(&ctx, out);
}

Status RoNode::ExecuteRow(const LogicalRef& plan, std::vector<Row>* out) {
  ExecContext ctx;
  ctx.pool = nullptr;  // the row engine executes single-threaded
  ctx.parallelism = 1;
  // Pin the applied commit point for the whole plan, in the same registry
  // as ExecuteColumn: every scan it contains sees one commit prefix, and
  // maintenance pruning cannot reclaim the pinned versions until the view
  // closes.
  const SnapshotRegistry::View view =
      engine_.row_snapshots()->OpenView(pipeline_.applied_vid_ref());
  ctx.read_vid = view.vid();
  PhysOpRef root;
  IMCI_RETURN_NOT_OK(LowerToRowPlan(plan, &engine_, &root));
  return RunPlan(root, &ctx, out);
}

size_t RoNode::RecoverRowReplica() {
  const size_t undone = engine_.UndoInflight();
  if (undone > 0) RefreshStats();
  return undone;
}

Status RoNode::Execute(const LogicalRef& plan, std::vector<Row>* out,
                       EngineChoice* chosen) {
  RoutingDecision d = RouteQuery(plan, stats_, options_.row_cost_threshold);
  if (chosen) *chosen = d.engine;
  if (d.engine == EngineChoice::kRowEngine) {
    // A row plan that fails falls back to the column engine.
    Status s = ExecuteRow(plan, out);
    return s.ok() ? s : ExecuteColumn(plan, out);
  }
  // Run-time fallback (§6.1): a plan the column engine cannot lower, such as
  // one that scans a column outside the column index, runs on the row
  // engine. A lowered column plan that fails while running keeps its error.
  PhysOpRef root;
  if (Status s = LowerToColumnPlan(plan, &imci_, &root); !s.ok()) {
    return s.IsNotSupported() ? ExecuteRow(plan, out) : s;
  }
  const SnapshotRegistry::View view =
      engine_.row_snapshots()->OpenView(pipeline_.applied_vid_ref());
  RowSet set;
  IMCI_RETURN_NOT_OK(RunColumnAt(plan, root, view.vid(), 0, &set, nullptr));
  *out = ToRows(set);
  return Status::OK();
}

void RoNode::RefreshStats() {
  stats_.Collect(imci_);
  stats_.CollectRowStore(engine_);
}

RoNode::Health RoNode::health() const {
  Health h;
  h.replicating = replicating_.load();
  h.wedged = pipeline_.wedged();
  if (h.wedged) h.wedge_reason = pipeline_.wedge_reason();
  h.checkpoint_error = pipeline_.last_checkpoint_error();
  h.apply_lag = pipeline_.LsnDelay();
  const uint64_t beat = pipeline_.heartbeat_us();
  const uint64_t now = NowMicros();
  h.heartbeat_age_us = (h.replicating && now > beat) ? now - beat : 0;
  return h;
}

}  // namespace imci
