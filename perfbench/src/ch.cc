#include "ch.h"

#include <algorithm>

#include "plan/logical.h"

namespace perfbench {

using namespace imci;
using namespace imci::chbench;

ChData::ChData(uint64_t seed) : bench(kWarehouses, kItemsPerWarehouse, seed) {
  for (auto t : {kItem, kWarehouse, kDistrict, kCustomer, kStock, kOrder,
                 kOrderLine, kNewOrder}) {
    tables.emplace_back(t, bench.Generate(t));
  }
  for (const auto& [id, rows] : tables) {
    if (id == kDistrict) {
      for (const Row& row : rows) {
        base_next_o_id_sum += AsInt(row[3]);
        base_next_del_o_id_sum += AsInt(row[4]);
      }
    } else if (id == kOrder) {
      base_orders = static_cast<int64_t>(rows.size());
    }
  }
}

bool BuildChCluster(const ChData& data, size_t rw_pool_capacity, int reps,
                    std::unique_ptr<Cluster>* out, RunResult* r) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    out->reset();
    std::vector<std::vector<Row>> rows;
    for (const auto& [id, table_rows] : data.tables) rows.push_back(table_rows);
    ClusterOptions opts = BaseClusterOptions();
    opts.rw_pool_capacity = rw_pool_capacity;
    opts.initial_ro_nodes = 1;
    const uint64_t start = NowNs();
    auto cluster = std::make_unique<Cluster>(opts);
    Status s;
    for (const auto& schema : data.bench.Schemas()) {
      if (s.ok()) s = cluster->CreateTable(schema);
    }
    for (size_t i = 0; i < data.tables.size() && s.ok(); ++i) {
      s = cluster->BulkLoad(data.tables[i].first, std::move(rows[i]));
    }
    if (s.ok()) s = cluster->Open();
    if (!s.ok()) {
      r->Fail("set-up: " + s.ToString());
      return false;
    }
    times.push_back(double(NowNs() - start) / 1e9);
    *out = std::move(cluster);
  }
  r->RecordSetup(std::move(times));
  return true;
}

TxnKind PickTxn(Rng* rng) {
  const uint64_t pick = rng->Next() % 100;
  if (pick < 48) return TxnKind::kNewOrder;
  if (pick < 91) return TxnKind::kPayment;
  return TxnKind::kDelivery;
}

TxnOutcome RunTxn(ChBench* bench, Cluster* cluster, TxnKind kind, Rng* rng) {
  // A lock timeout is the engine asking the client to retry; anything else
  // ends the transaction. The bound only stops a livelock from hanging the
  // run (it would then count as a failure).
  constexpr uint64_t kMaxBusyRetries = 1000;
  TransactionManager* txns = cluster->rw()->txn_manager();
  TxnOutcome out;
  for (;;) {
    {
      ScopedSpan span("rowstore.txn");
      switch (kind) {
        case TxnKind::kNewOrder: out.status = bench->NewOrder(txns, rng); break;
        case TxnKind::kPayment: out.status = bench->Payment(txns, rng); break;
        case TxnKind::kDelivery: out.status = bench->Delivery(txns, rng); break;
      }
    }
    if (!out.status.IsBusy() || out.busy_retries >= kMaxBusyRetries) break;
    ++out.busy_retries;
  }
  return out;
}

namespace {

double AsNumber(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) return double(std::get<int64_t>(v));
  if (std::holds_alternative<double>(v)) return std::get<double>(v);
  return 0;
}

struct GateQuery {
  const char* table;
  std::vector<const char*> int_sums;
  std::vector<const char*> double_sums;
  std::vector<const char*> non_null_counts;
};

// Every table the mix writes, with every column it changes.
const std::vector<GateQuery>& GateQueries() {
  static const std::vector<GateQuery> kQueries = {
      {"warehouse", {}, {"w_ytd"}, {}},
      {"district", {"d_next_o_id", "d_next_del_o_id"}, {"d_ytd"}, {}},
      {"ch_customer", {"c_payment_cnt", "c_delivery_cnt"},
       {"c_balance", "c_ytd_payment"}, {}},
      {"stock", {"s_quantity", "s_ytd", "s_order_cnt"}, {}, {}},
      {"ch_order", {"o_ol_cnt", "o_id"}, {}, {"o_carrier_id"}},
      {"order_line", {"ol_quantity", "ol_i_id"}, {"ol_amount"},
       {"ol_delivery_d"}},
      {"new_order", {"no_o_id"}, {}, {}},
  };
  return kQueries;
}

// COUNT(*), then the int sums, double sums and non-null counts in order.
LogicalRef GatePlan(const Catalog& cat, const GateQuery& q) {
  auto schema = cat.GetByName(q.table);
  std::vector<int> cols;
  std::vector<AggSpec> aggs = {AggSpec{AggKind::kCountStar, nullptr}};
  auto add = [&](const char* name, AggKind kind) {
    const int ord = schema->ColumnIndex(name);
    aggs.push_back(AggSpec{
        kind, Col(static_cast<int>(cols.size()), schema->column(ord).type)});
    cols.push_back(ord);
  };
  for (const char* c : q.int_sums) add(c, AggKind::kSumInt);
  for (const char* c : q.double_sums) add(c, AggKind::kSum);
  for (const char* c : q.non_null_counts) add(c, AggKind::kCount);
  return LAgg(LScan(schema->table_id(), cols), {}, aggs);
}

}  // namespace

double CheckChGates(const ChData& data, Cluster* cluster,
                    const AckCounts& acked, uint64_t commits0, RunResult* r) {
  RoNode* ro = cluster->ro(0);
  const uint64_t t0 = NowNs();
  Status s = ro->CatchUpNow();
  const double catchup_ms = NsToMs(double(NowNs() - t0));
  if (!s.ok()) {
    r->Fail("RO catch-up: " + s.ToString());
    return catchup_ms;
  }
  const Catalog& cat = *cluster->catalog();
  double next_o = 0, next_del = 0, payments = 0;
  for (const GateQuery& q : GateQueries()) {
    const LogicalRef plan = GatePlan(cat, q);
    std::vector<Row> rw_rows, ro_rows;
    Status a = cluster->rw()->ExecuteSnapshot(plan, &rw_rows);
    Status b = ro->ExecuteColumn(plan, &ro_rows);
    if (!a.ok() || !b.ok()) {
      r->Fail(std::string("gate query on ") + q.table + ": " +
              (a.ok() ? b : a).ToString());
      continue;
    }
    if (!ResultsMatch(rw_rows, ro_rows)) {
      r->Fail(std::string("RW row aggregates differ from RO column "
                          "aggregates on ") + q.table);
      continue;
    }
    if (rw_rows.size() != 1) continue;
    const Row& row = rw_rows[0];
    if (std::string(q.table) == "district") {
      next_o = AsNumber(row[1]);
      next_del = AsNumber(row[2]);
    } else if (std::string(q.table) == "ch_customer") {
      payments = AsNumber(row[1]);
    }
  }
  // Every committed NewOrder advances a district's next order id, every
  // committed Payment a customer's payment count, every committed Delivery
  // a district's next-to-deliver id. A Delivery with nothing to deliver
  // acknowledges without committing, hence <= for that kind.
  const double new_orders = next_o - double(data.base_next_o_id_sum);
  const double deliveries = next_del - double(data.base_next_del_o_id_sum);
  const uint64_t commits =
      cluster->rw()->txn_manager()->commits() - commits0;
  if (new_orders != double(acked[0])) {
    r->Fail("acknowledged NewOrders " + std::to_string(acked[0]) +
            " != committed " + std::to_string(int64_t(new_orders)));
  }
  if (payments != double(acked[1])) {
    r->Fail("acknowledged Payments " + std::to_string(acked[1]) +
            " != committed " + std::to_string(int64_t(payments)));
  }
  if (deliveries > double(acked[2])) {
    r->Fail("committed Deliveries exceed the acknowledged ones");
  }
  if (double(commits) != new_orders + payments + deliveries) {
    r->Fail("TransactionManager counts " + std::to_string(commits) +
            " commits, the database shows " +
            std::to_string(int64_t(new_orders + payments + deliveries)));
  }
  return catchup_ms;
}

CommitCounters CommitCounters::Read(Cluster* c) {
  RwNode* rw = c->rw();
  ReplicationPipeline* p = c->ro(0)->pipeline();
  BufferPool* pool = rw->engine()->buffer_pool();
  return {rw->txn_manager()->commits(),
          c->fs()->commit_batches(),
          c->fs()->batched_commits(),
          c->fs()->log_bytes(),
          c->fs()->page_reads(),
          pool->hits(),
          pool->misses(),
          rw->engine()->MvccStatsSnapshot().versions_installed,
          p->applied_ops(),
          p->compactions()};
}

void AddCommitPathLayers(const CommitCounters& c0, const CommitCounters& c1,
                         double elapsed_s, uint64_t txns, uint64_t busy,
                         uint64_t lsn_delay_max, double catchup_ms,
                         Cluster* cluster, RunResult* r) {
  const double per_txn = double(std::max<uint64_t>(txns, 1));
  const double commits = double(std::max<uint64_t>(c1.commits - c0.commits, 1));
  const double hits = double(c1.pool_hits - c0.pool_hits);
  const double misses = double(c1.pool_misses - c0.pool_misses);
  auto& l = r->layers;
  l["rowstore.busy"] = {double(busy), "count"};
  l["rowstore.mvcc.versions_per_commit"] = {
      double(c1.versions - c0.versions) / commits, "count"};
  l["rowstore.mvcc.arena_bytes_live"] = {
      double(cluster->rw()->engine()->MvccStatsSnapshot().arena_bytes_live),
      "bytes"};
  l["rowstore.pool_hit_ratio"] = {
      hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"};
  l["rowstore.pool_misses_per_txn"] = {misses / per_txn, "count"};
  l["polarfs.page_reads_per_txn"] = {
      double(c1.page_reads - c0.page_reads) / per_txn, "count"};
  l["log.commits_per_fsync"] = {
      double(c1.batched - c0.batched) /
          double(std::max<uint64_t>(c1.batches - c0.batches, 1)),
      "count"};
  l["redo.bytes_per_commit"] = {double(c1.log_bytes - c0.log_bytes) / commits,
                                "bytes"};
  l["replication.applied_ops_per_s"] = {
      double(c1.applied_ops - c0.applied_ops) / elapsed_s, "1/s"};
  l["replication.lsn_delay_max"] = {double(lsn_delay_max), "lsn"};
  l["replication.catchup_ms"] = {catchup_ms, "ms"};
  l["replication.compactions"] = {double(c1.compactions - c0.compactions),
                                  "count"};
  l["replication.vd_hist_p50_ms"] = {
      cluster->ro(0)->pipeline()->vd_histogram()->Percentile(0.5) / 1e3, "ms"};
}

}  // namespace perfbench
