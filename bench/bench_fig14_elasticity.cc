// Reproduces Figure 14: resource elasticity. A steady sysbench insert-only
// TP load runs on the RW node while AP clients issue TPC-H Q6 through the
// proxy. Two RO nodes are added mid-run; the bench reports when each starts
// serving, its LSN-delay catch-up curve, and the cluster OLAP throughput
// step-up. The second node boots from the leader's checkpoint and catches up
// faster — the paper's key shape.
#include "bench/bench_util.h"
#include "tests/test_util.h"

using namespace imci;
using namespace imci::bench;

int main(int argc, char** argv) {
  const bool smoke = Flag(argc, argv, "smoke", 0) != 0;
  const double sf = Flag(argc, argv, "sf", smoke ? 0.005 : 0.01);
  const double horizon = Flag(argc, argv, "secs", smoke ? 4.0 : 12.0);
  ClusterOptions opts;
  // Fragment coordinator armed aggressively: the AP load distributes across
  // the fleet as soon as nodes join, so the qps step-up measures scale-out
  // of *queries*, not just session balancing; the scale-out-query datapoint
  // at the end sweeps participants explicitly.
  // rows_per_fragment is deliberately tiny: this bench wants every query
  // fanned out to all participants at smoke scale, not sized for profit.
  // The routing threshold is zeroed for the same reason: at smoke scale Q6
  // touches few enough rows that the proxy would route it to a row engine.
  opts.ro.row_cost_threshold = 0.0;
  opts.coordinator.rows_per_fragment = 500.0;
  opts.coordinator.fragment_dop = 1;
  auto cluster = MakeTpchCluster(sf, 1, opts);
  if (!cluster) return 1;
  (void)cluster->ro(0)->CatchUpNow();

  // Steady TP load: inserts into lineitem-like sysbench tables are not part
  // of the TPC-H schema; use direct inserts into `orders` keyspace instead.
  auto* txns = cluster->rw()->txn_manager();
  std::atomic<bool> stop{false};
  std::thread tp_driver([&] {
    Rng rng(5);
    int64_t next_pk = 1'000'000'000LL;
    while (!stop.load(std::memory_order_relaxed)) {
      Transaction txn;
      txns->Begin(&txn);
      (void)txns->Insert(&txn, tpch::kOrders,
                   {next_pk++, int64_t(1 + rng.Next() % 100),
                    std::string("O"), 100.0, int64_t(MakeDate(1997, 1, 1)),
                    std::string("1-URGENT"), std::string("Clerk#1"),
                    int64_t(0), std::string("c")});
      (void)txns->Commit(&txn);
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
  });

  // AP load: TPC-H Q6 through the proxy, 4 clients.
  std::atomic<uint64_t> ap_window{0};
  std::vector<std::thread> ap_clients;
  for (int c = 0; c < 4; ++c) {
    ap_clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<Row> out;
        auto exec = [&](const LogicalRef& p, std::vector<Row>* o) {
          return cluster->proxy()->ExecuteQuery(p, o);
        };
        if (tpch::RunQuery(6, *cluster->catalog(), exec, &out).ok()) {
          ap_window.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::printf("# Figure 14 | elasticity timeline (1 tick = 0.5s)\n");
  std::printf("%-6s %10s %8s %14s %14s\n", "t(s)", "olap_qps", "ro_nodes",
              "no1_lsn_delay", "no2_lsn_delay");
  BenchReport report("fig14_elasticity");
  report.Metric("sf", sf);
  report.Metric("horizon_s", horizon);
  report.Metric("smoke", smoke ? 1 : 0);
  RoNode* no1 = nullptr;
  RoNode* no2 = nullptr;
  double no1_added = -1, no1_ready = -1, no2_added = -1, no2_ready = -1;
  Timer wall;
  int tick = 0;
  while (wall.ElapsedSeconds() < horizon) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    ++tick;
    const double t = wall.ElapsedSeconds();
    const double qps = ap_window.exchange(0) / 0.5;
    // Scale-out events: node 1 at ~1/4 horizon, checkpoint, node 2 at ~5/8.
    if (!no1 && t > horizon / 4) {
      Timer boot;
      (void)cluster->AddRoNode(&no1);
      no1_added = t;
      std::printf("## t=%.1fs scale-out No.1 (boot %.2fs: %s)\n", t,
                  boot.ElapsedSeconds(),
                  no1 ? "service available" : "failed");
    }
    if (no1 && no1_ready < 0 && no1->LsnDelay() == 0) {
      no1_ready = t;
      (void)cluster->TriggerCheckpoint();  // leader persists for the next joiner
    }
    if (!no2 && no1_ready > 0 && t > horizon * 5 / 8) {
      Timer boot;
      (void)cluster->AddRoNode(&no2);
      no2_added = t;
      std::printf("## t=%.1fs scale-out No.2 (boot %.2fs, from checkpoint)\n",
                  t, boot.ElapsedSeconds());
    }
    if (no2 && no2_ready < 0 && no2->LsnDelay() == 0) no2_ready = t;
    report.Row()
        .Set("t_s", t)
        .Set("olap_qps", qps)
        .Set("ro_nodes", static_cast<double>(cluster->ro_nodes().size()))
        .Set("no1_lsn_delay", no1 ? static_cast<double>(no1->LsnDelay()) : 0)
        .Set("no2_lsn_delay", no2 ? static_cast<double>(no2->LsnDelay()) : 0);
    std::printf("%-6.1f %10.1f %8zu %14lu %14lu\n", t, qps,
                cluster->ro_nodes().size(),
                no1 ? (unsigned long)no1->LsnDelay() : 0ul,
                no2 ? (unsigned long)no2->LsnDelay() : 0ul);
  }
  stop.store(true);
  tp_driver.join();
  for (auto& c : ap_clients) c.join();
  std::printf("# summary: No.1 added t=%.1fs caught-up t=%.1fs (%.1fs); "
              "No.2 added t=%.1fs caught-up t=%.1fs (%.1fs)\n",
              no1_added, no1_ready, no1_ready - no1_added, no2_added,
              no2_ready, no2_ready - no2_added);
  std::printf("# paper: service available ~10s after add, catch-up <=9s, "
              "No.2 catches up faster via newer checkpoint\n");
  report.Metric("no1_added_s", no1_added);
  report.Metric("no1_ready_s", no1_ready);
  report.Metric("no1_catchup_s", no1_ready - no1_added);
  report.Metric("no2_added_s", no2_added);
  report.Metric("no2_ready_s", no2_ready);
  report.Metric("no2_catchup_s", no2_ready - no2_added);

  // --- Scale-out-query datapoint ----------------------------------------
  // With the full fleet converged, one Q6 at a single RO (serial reference)
  // vs fanned out over all three through the fragment coordinator: the
  // per-query face of elasticity — adding nodes speeds up *a* query, not
  // just query *throughput*. Equivalence is asserted; the speedup is
  // reported (the fig9 RO sweep owns the gated version).
  for (RoNode* node : cluster->ro_nodes()) {
    (void)node->CatchUpNow();
    node->RefreshStats();
  }
  QueryCoordinator* coord = cluster->coordinator();
  auto ref_exec = [&](const LogicalRef& p, std::vector<Row>* o) {
    return cluster->ro(0)->ExecuteColumn(p, o, 1);
  };
  std::vector<Row> ref_out;
  Timer ref_t;
  if (!tpch::RunQuery(6, *cluster->catalog(), ref_exec, &ref_out).ok()) {
    return 1;
  }
  const double q1ro_ms = ref_t.ElapsedMicros() / 1000.0;
  coord->set_max_participants(3);
  bool distributed = false;
  auto dist_exec = [&](const LogicalRef& p, std::vector<Row>* o) {
    bool attempted = false;
    Status s = coord->Execute(p, 0, o, &attempted);
    distributed = attempted;
    if (attempted) return s;
    return cluster->ro(0)->ExecuteColumn(p, o, 1);
  };
  std::vector<Row> dist_out;
  Timer dist_t;
  if (!tpch::RunQuery(6, *cluster->catalog(), dist_exec, &dist_out).ok()) {
    return 1;
  }
  const double q3ro_ms = dist_t.ElapsedMicros() / 1000.0;
  const bool same = testing_util::Canonicalize(dist_out) ==
                    testing_util::Canonicalize(ref_out);
  std::printf("# scale-out query: Q6 1-RO %.2fms, 3-RO %.2fms (x%.2f, "
              "%s, %s)\n",
              q1ro_ms, q3ro_ms, q1ro_ms / std::max(q3ro_ms, 1e-3),
              distributed ? "distributed" : "fell back",
              same ? "equivalent" : "NOT EQUIVALENT");
  report.Metric("scaleout_query_1ro_ms", q1ro_ms);
  report.Metric("scaleout_query_3ro_ms", q3ro_ms);
  report.Metric("scaleout_query_speedup",
                q1ro_ms / std::max(q3ro_ms, 1e-3));
  report.Metric("scaleout_query_distributed", distributed ? 1 : 0);
  report.Metric("scaleout_query_equivalent", same ? 1 : 0);
  report.Write();
  return same ? 0 : 1;
}
