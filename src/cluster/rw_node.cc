#include "cluster/rw_node.h"

#include "common/coding.h"
#include "exec/operators.h"

namespace imci {

RwNode::RwNode(PolarFs* fs, Catalog* catalog, size_t pool_capacity,
               uint64_t lock_timeout_us)
    : fs_(fs),
      engine_(fs, catalog, pool_capacity),
      redo_(fs->log("redo")),
      locks_(lock_timeout_us),
      binlog_(fs->log("binlog")),
      txns_(&engine_, &redo_, &locks_, &binlog_) {}

Status RwNode::BulkLoad(TableId table, std::vector<Row> rows) {
  RowTable* t = engine_.GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  return t->BulkLoad(std::move(rows));
}

Status RwNode::FinishLoad() {
  IMCI_RETURN_NOT_OK(engine_.CheckpointPages());
  std::string blob;
  PutFixed64(&blob, redo_.written_lsn());
  return fs_->WriteFile("rowstore/base_lsn", std::move(blob));
}

Status RwNode::ReadBaseLsn(PolarFs* fs, Lsn* lsn) {
  std::string blob;
  IMCI_RETURN_NOT_OK(fs->ReadFile("rowstore/base_lsn", &blob));
  return ByteReader(blob).U64(lsn);
}

Status RwNode::ExecuteSnapshot(const LogicalRef& plan, std::vector<Row>* out) {
  // The view is held open for the whole plan so every scan it contains sees
  // one commit point; the RAII close unpins it from the prune watermark.
  ReadView view = txns_.OpenReadView();
  ExecContext ctx;
  ctx.pool = nullptr;  // the RW row engine executes single-threaded
  ctx.parallelism = 1;
  ctx.read_vid = view.vid();
  PhysOpRef root;
  IMCI_RETURN_NOT_OK(LowerToRowPlan(plan, &engine_, &root));
  return RunPlan(root, &ctx, out);
}

size_t RwNode::PruneVersions() {
  const Vid watermark = txns_.PruneWatermark();
  size_t dropped = 0;
  for (RowTable* table : engine_.AllTables()) {
    dropped += table->PruneVersions(watermark);
  }
  return dropped;
}

}  // namespace imci
