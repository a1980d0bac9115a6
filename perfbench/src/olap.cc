// olap_tpch: read-only TPC-H at SF 0.05 on two RO nodes. Set-up loads the
// data, opens RO#1 (column index rebuilt from the row store), checkpoints,
// and boots RO#2 from that checkpoint (the scale-out path). One closed-loop
// client then runs Q1..Q22 in a fixed order through the proxy, so the
// coordinator fans eligible queries out over both ROs. The run sets up
// three clusters in turn and measures each for a third of its time. Every
// result is checked against a serial single-RO reference computed on the
// first cluster.
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "imci/checkpoint.h"
#include "workloads/tpch.h"

namespace perfbench {

using namespace imci;

namespace {

constexpr double kScaleFactor = 0.05;
constexpr int kQueries = 22;
constexpr int kSetupReps = 3;

struct TpchData {
  std::vector<std::shared_ptr<const Schema>> schemas;
  std::vector<std::pair<TableId, std::vector<Row>>> tables;
};

struct SetupTimes {
  double total_ns = 0;
  double checkpoint_ns = 0;
  double scale_out_ns = 0;
};

// Waits for a checkpoint manifest to become visible in shared storage.
Status WaitForManifest(PolarFs* fs) {
  const uint64_t give_up = NowNs() + 30'000'000'000ull;
  for (;;) {
    Vid csn = 0;
    Lsn lsn = 0;
    Status s = ImciCheckpoint::ReadLatestManifest(fs, &csn, &lsn, nullptr);
    if (s.ok()) return s;
    if (!s.IsNotFound()) return s;
    if (NowNs() > give_up) {
      return Status::Busy("checkpoint manifest not visible after 30 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// Builds the two-RO cluster; everything inside the timer is engine work.
Status BuildCluster(const TpchData& data, std::unique_ptr<Cluster>* out,
                    SetupTimes* t) {
  std::vector<std::vector<Row>> rows;
  rows.reserve(data.tables.size());
  for (const auto& [id, table_rows] : data.tables) rows.push_back(table_rows);

  ClusterOptions opts = BaseClusterOptions();
  opts.initial_ro_nodes = 1;
  const uint64_t start = NowNs();
  auto cluster = std::make_unique<Cluster>(opts);
  for (const auto& schema : data.schemas) {
    IMCI_RETURN_NOT_OK(cluster->CreateTable(schema));
  }
  for (size_t i = 0; i < data.tables.size(); ++i) {
    IMCI_RETURN_NOT_OK(
        cluster->BulkLoad(data.tables[i].first, std::move(rows[i])));
  }
  IMCI_RETURN_NOT_OK(cluster->Open());
  const uint64_t ckpt = NowNs();
  IMCI_RETURN_NOT_OK(cluster->TriggerCheckpoint());
  IMCI_RETURN_NOT_OK(WaitForManifest(cluster->fs()));
  const uint64_t scale = NowNs();
  RoNode* ro2 = nullptr;
  IMCI_RETURN_NOT_OK(cluster->AddRoNode(&ro2));
  IMCI_RETURN_NOT_OK(ro2->CatchUpNow());
  const uint64_t end = NowNs();
  t->total_ns = double(end - start);
  t->checkpoint_ns = double(scale - ckpt);
  t->scale_out_ns = double(end - scale);
  *out = std::move(cluster);
  return Status::OK();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

// Row-group pruning of every scan a query issues, measured by running each
// scan on its own at serial parallelism (the executor does not expose its
// operators, so this is the only way to count them from outside).
void CountScanGroups(RoNode* ro, const LogicalRef& plan, uint64_t* scanned,
                     uint64_t* pruned) {
  std::vector<const LogicalNode*> scans;
  CollectScans(plan, &scans);
  for (const LogicalNode* n : scans) {
    ColumnIndex* index = ro->imci()->GetIndex(n->table_id);
    if (index == nullptr) continue;
    ScanPartition part;
    part.col = n->part_col;
    part.has_lo = n->part_has_lo;
    part.has_hi = n->part_has_hi;
    part.lo = n->part_lo;
    part.hi = n->part_hi;
    ColumnScanOp op(index, n->cols, n->filter, part);
    ExecContext ctx;
    ctx.read_vid = ro->applied_vid();
    const uint64_t pin = index->read_views()->Pin(ctx.read_vid);
    RowSet rows;
    (void)op.Execute(&ctx, &rows);
    index->read_views()->Unpin(pin);
    *scanned += op.groups_scanned();
    *pruned += op.groups_pruned();
  }
}

}  // namespace

RunResult RunOlapTpch(const RunOptions& opt) {
  RunResult r;
  r.labels["scale_factor"] = "0.05";
  r.labels["ro_nodes"] = "2";
  r.labels["clients"] = "1 closed-loop";

  TpchData data;
  {
    tpch::TpchGen gen(kScaleFactor, opt.seed);
    data.schemas = gen.Schemas();
    for (auto t : {tpch::kRegion, tpch::kNation, tpch::kSupplier,
                   tpch::kPart, tpch::kPartsupp, tpch::kCustomer,
                   tpch::kOrders, tpch::kLineitem}) {
      data.tables.emplace_back(t, gen.Generate(t));
    }
  }

  // Each set-up builds a fresh cluster and gets an equal share of the
  // measured time: one process's cluster layout (allocations, thread
  // placement) moves query times by several percent from run to run, and
  // sampling several layouts per run evens that out.
  std::unique_ptr<Cluster> cluster;
  std::vector<double> setup_s, ckpt_ms, scale_ms;
  std::vector<std::vector<Row>> ref(kQueries + 1);
  std::vector<std::vector<uint64_t>> lat(kQueries + 1);
  std::vector<std::vector<uint64_t>> lat_traced(kQueries + 1);
  QueryCounters lc;
  uint64_t completed = 0, stolen = 0, throttled = 0, fallbacks = 0;
  double elapsed_s = 0, cpu_ns = 0;
  int round = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    SetupTimes t;
    Status s = BuildCluster(data, &cluster, &t);
    if (!s.ok()) {
      r.Fail("set-up: " + s.ToString());
      return r;
    }
    setup_s.push_back(t.total_ns / 1e9);
    ckpt_ms.push_back(NsToMs(t.checkpoint_ns));
    scale_ms.push_back(NsToMs(t.scale_out_ns));

    const Catalog& cat = *cluster->catalog();
    RoNode* ro1 = cluster->ro(0);
    if (rep == 0) {
      // Reference answers: serial, single RO, column engine. Later
      // clusters hold the same data and must give the same answers.
      const tpch::ExecFn ref_exec = [&](const LogicalRef& p,
                                        std::vector<Row>* o) {
        return ro1->ExecuteColumn(p, o, /*parallelism=*/1);
      };
      for (int q = 1; q <= kQueries; ++q) {
        s = tpch::RunQuery(q, cat, ref_exec, &ref[q]);
        if (!s.ok()) {
          r.Fail("reference Q" + std::to_string(q) + ": " + s.ToString());
          return r;
        }
      }
    }

    Proxy* proxy = cluster->proxy();
    const tpch::ExecFn proxy_exec = [&](const LogicalRef& p,
                                        std::vector<Row>* o) {
      return proxy->ExecuteQuery(p, o, Consistency::kEventual);
    };
    const tpch::ExecFn traced_exec = [&](const LogicalRef& p,
                                         std::vector<Row>* o) {
      return TracedExecute(cluster.get(), p, Consistency::kEventual, o, &lc);
    };
    // Runs query q, checks it against the reference, returns its latency.
    auto run_checked = [&](int q, bool traced) {
      std::vector<Row> out;
      const uint64_t t0 = NowNs();
      Status qs;
      {
        TraceRequest req("bench.query", traced);
        qs = tpch::RunQuery(q, cat, traced ? traced_exec : proxy_exec, &out);
      }
      const uint64_t ns = NowNs() - t0;
      if (traced) Tracer::Get().RecordLatency(ns);
      r.ops.attempted++;
      if (!qs.ok() || !ResultsMatch(out, ref[q])) {
        r.ops.failed++;
        r.Fail("Q" + std::to_string(q) + (qs.ok() ? ": result differs from "
                                                    "the serial reference"
                                                  : ": " + qs.ToString()));
      }
      return ns;
    };

    // Warm-up round through the proxy (checked, not timed): RO#2 and the
    // coordinator path have not run a query yet.
    for (int q = 1; q <= kQueries; ++q) run_checked(q, false);

    uint64_t stolen0 = 0, throttled0 = 0;
    for (RoNode* ro : cluster->ro_nodes()) {
      stolen0 += ro->exec_pool()->tasks_stolen();
      throttled0 += ro->query_tokens()->queries_throttled();
    }
    const uint64_t fallbacks0 = cluster->coordinator()->fallbacks();

    // Measured share, in whole Q1..Q22 rounds so that every query weighs
    // the same in the rate. A traced run alternates traced and untraced
    // rounds so the tracing overhead is measured in the same process.
    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t start = NowNs();
    const uint64_t deadline =
        start + uint64_t(opt.seconds * 1e9 / kSetupReps);
    for (; NowNs() < deadline; ++round) {
      const bool traced = opt.trace && round % 2 == 0;
      for (int q = 1; q <= kQueries; ++q) {
        const uint64_t ns = run_checked(q, traced);
        (traced ? lat_traced : lat)[q].push_back(ns);
        ++completed;
      }
    }
    elapsed_s += double(NowNs() - start) / 1e9;
    cpu_ns += double(ProcessCpuNs() - cpu0);

    for (RoNode* ro : cluster->ro_nodes()) {
      stolen += ro->exec_pool()->tasks_stolen();
      throttled += ro->query_tokens()->queries_throttled();
    }
    stolen -= stolen0;
    throttled -= throttled0;
    fallbacks += cluster->coordinator()->fallbacks() - fallbacks0;
  }
  data.tables.clear();
  data.tables.shrink_to_fit();

  const double gmean_ms = NsToMs(GmeanOfPercentiles(lat, 50));
  const double qps = double(completed) / elapsed_s;
  r.RecordSetup(setup_s);
  r.e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  r.e2e["op_ms_gmean"] = {gmean_ms, "ms"};
  r.e2e["ops_per_s"] = {qps, "1/s"};
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.4f ms", gmean_ms);
  r.info["query_ms_gmean"] = buf;
  std::snprintf(buf, sizeof(buf), "%.3f /s (%llu queries in %.2f s)", qps,
                static_cast<unsigned long long>(completed), elapsed_s);
  r.info["queries_per_s"] = buf;
  std::snprintf(buf, sizeof(buf), "%.2f ms (all threads)",
                NsToMs(cpu_ns / double(std::max<uint64_t>(completed, 1))));
  r.info["cpu_ms_per_query"] = buf;
  for (int q = 1; q <= kQueries; ++q) {
    r.Summary("q" + std::to_string(q) + "_ms", lat[q]);
  }

  if (opt.trace) {
    // Pruning counts of one Q1..Q22 round, and the layer report.
    const Catalog& cat = *cluster->catalog();
    RoNode* ro1 = cluster->ro(0);
    uint64_t scanned = 0, pruned = 0;
    const tpch::ExecFn count_exec = [&](const LogicalRef& p,
                                        std::vector<Row>* o) {
      CountScanGroups(ro1, p, &scanned, &pruned);
      return ro1->ExecuteColumn(p, o);
    };
    for (int q = 1; q <= kQueries; ++q) {
      std::vector<Row> out;
      (void)tpch::RunQuery(q, cat, count_exec, &out);
    }
    const TraceSummary ts = Tracer::Get().Summarize();
    AddSpanLayers(ts, &r);
    const double traced_ms = NsToMs(GmeanOfPercentiles(lat_traced, 50));
    r.layers["trace.overhead_pct"] = {
        gmean_ms > 0 ? (traced_ms / gmean_ms - 1) * 100 : 0, "%"};
    const double dq = double(std::max<uint64_t>(lc.dist_queries, 1));
    const double frags = double(std::max<uint64_t>(lc.fragments, 1));
    r.layers["cluster.dist.fragments"] = {lc.fragments / dq, "count"};
    r.layers["cluster.dist.fragment_exec_ms"] = {
        lc.fragment_exec_us / 1e3 / frags, "ms"};
    r.layers["cluster.dist.fragment_wait_ms"] = {
        lc.fragment_wait_us / 1e3 / frags, "ms"};
    r.layers["cluster.dist.merge_ms"] = {lc.merge_us / 1e3 / dq, "ms"};
    r.layers["cluster.dist.fallbacks"] = {double(fallbacks), "count"};
    r.layers["cluster.scale_out_ms"] = {Median(scale_ms), "ms"};
    r.layers["imci.checkpoint_ms"] = {Median(ckpt_ms), "ms"};
    r.layers["imci.groups_scanned"] = {double(scanned), "count"};
    r.layers["imci.groups_pruned"] = {double(pruned), "count"};
    r.layers["exec.dop_used"] = {
        lc.column_runs ? double(lc.dop_sum) / lc.column_runs : 0, "count"};
    r.layers["exec.tasks_stolen"] = {double(stolen), "count"};
    r.layers["exec.queries_throttled"] = {double(throttled), "count"};
    std::snprintf(buf, sizeof(buf),
                  "traced calls: %llu distributed, %llu single-RO column",
                  static_cast<unsigned long long>(lc.dist_queries),
                  static_cast<unsigned long long>(lc.column_runs));
    r.info["coordinator"] = buf;
    WriteTrace(opt, &r);
  }
  cluster.reset();
  return r;
}

}  // namespace perfbench
