// The proxy's read path re-composed from public calls, so that a traced
// run can put a span around each layer the query crosses.
#include "bench.h"

namespace perfbench {

using namespace imci;

Status TracedExecute(Cluster* cluster, const LogicalRef& plan,
                     Consistency consistency, std::vector<Row>* out,
                     QueryCounters* c) {
  ScopedSpan proxy_span("cluster.proxy");
  const bool strong = consistency == Consistency::kStrong;
  bool attempted = false;
  DistQueryStats ds;
  Status s;
  {
    ScopedSpan span("cluster.coordinator");
    const Vid floor = strong ? cluster->rw()->txn_manager()->snapshot_vid() : 0;
    s = cluster->coordinator()->Execute(plan, floor, out, &attempted, &ds);
  }
  if (attempted) {
    c->dist_queries++;
    c->fragments += ds.fragments;
    for (const auto& f : ds.timings) {
      c->fragment_exec_us += double(f.exec_us);
      c->fragment_wait_us += double(f.wait_us);
    }
    c->merge_us += double(ds.merge_us);
    return s;
  }
  RoNode* ro = cluster->proxy()->PickRo();
  if (ro == nullptr) return Status::NotFound("no healthy RO");
  ro->EnterSession();
  if (strong) {
    ScopedSpan span("cluster.strong_wait");
    const Lsn written = cluster->rw()->written_lsn();
    while (ro->applied_lsn() < written) {
      if (!ro->healthy()) {
        ro->LeaveSession();
        return Status::Busy("RO went unhealthy during a strong read");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  const RoutingDecision d =
      RouteQuery(plan, *ro->stats(), ro->options().row_cost_threshold);
  if (d.engine == EngineChoice::kRowEngine) {
    ScopedSpan span("exec.row");
    s = ro->ExecuteRow(plan, out);
    if (s.ok()) {
      ro->LeaveSession();
      return s;
    }
  }
  const int desired =
      ChooseDop(plan, *ro->stats(), ro->options().default_parallelism);
  QueryTokenGrant grant(ro->query_tokens(), desired);
  c->column_runs++;
  c->dop_sum += grant.tokens();
  ExecContext ctx;
  ctx.pool = ro->exec_pool();
  ctx.parallelism = grant.tokens();
  ctx.morsel_row_groups = ro->options().morsel_row_groups;
  ctx.read_vid = ro->applied_vid();
  std::vector<const LogicalNode*> scans;
  CollectScans(plan, &scans);
  std::vector<std::pair<ColumnIndex*, uint64_t>> pins;
  for (const LogicalNode* n : scans) {
    ColumnIndex* index = ro->imci()->GetIndex(n->table_id);
    if (index) pins.emplace_back(index, index->read_views()->Pin(ctx.read_vid));
  }
  PhysOpRef root;
  {
    ScopedSpan span("plan.lower");
    s = LowerToColumnPlan(plan, ro->imci(), &root);
  }
  if (s.ok()) {
    ScopedSpan span("exec.run");
    s = RunPlan(root, &ctx, out);
  }
  for (auto& [index, token] : pins) index->read_views()->Unpin(token);
  ro->LeaveSession();
  return s;
}

}  // namespace perfbench
