// Chaos availability bench: client-visible availability and recovery time of
// the self-healing RO fleet under an injected storage failure. A fleet of RO
// nodes serves a steady analytical query load through the proxy while an OLTP
// writer churns the row store; mid-run, one node's replication log reads
// start failing (the in-process analogue of a dying disk). The health
// monitor must wedge-detect, evict, reroute, boot a replacement from the
// shared store, and re-admit it once converged — all while the client load
// keeps running.
//
// Three phases are reported (calm / storm / healed) with per-phase query
// latency percentiles, plus the headline gates:
//   - success_rate >= 0.999 across the whole run (degraded routing is the
//     contract; client-visible errors are not), and
//   - time_to_recover_s bounded: fault armed -> eviction + replacement +
//     fleet back at target size.
// The process exits nonzero when either gate fails, so CI can run it as a
// availability regression check. Results land in BENCH_chaos.json.
#include "bench/bench_util.h"
#include "common/fault.h"

using namespace imci;
using namespace imci::bench;

namespace {

std::shared_ptr<const Schema> BenchSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  return std::make_shared<Schema>(1, "kv", cols, 0);
}

enum Phase { kCalm = 0, kStorm = 1, kHealed = 2, kPhases = 3 };
const char* kPhaseNames[kPhases] = {"calm", "storm", "healed"};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = Flag(argc, argv, "smoke", 0) != 0;
  const double phase_secs = Flag(argc, argv, "phase_secs", smoke ? 0.3 : 2.0);
  const int n_clients = static_cast<int>(Flag(argc, argv, "clients", 4));
  const double recover_timeout_s =
      Flag(argc, argv, "recover_timeout_s", 30.0);
  const double min_success_rate = 0.999;

  ClusterOptions opts;
  opts.initial_ro_nodes = 2;
  opts.ro.imci.row_group_size = 1024;
  // Fast failure detection: wedge after ~3 retries, monitor tick every 1ms.
  opts.ro.replication.max_transient_retries = 3;
  opts.ro.replication.retry_backoff_us = 100;
  opts.ro.replication.retry_backoff_cap_us = 1'000;
  opts.ro.replication.poll_timeout_us = 500;
  opts.health.enabled = true;
  opts.health.check_interval_us = 1'000;
  opts.health.auto_replace = true;
  const size_t target_fleet = opts.initial_ro_nodes;

  Cluster cluster(opts);
  if (!cluster.CreateTable(BenchSchema()).ok()) return 1;
  std::vector<Row> base;
  for (int64_t pk = 0; pk < 2000; ++pk) base.push_back({pk, int64_t(0)});
  if (!cluster.BulkLoad(1, std::move(base)).ok()) return 1;
  if (!cluster.Open().ok()) return 1;

  // --- steady background load ----------------------------------------------
  std::atomic<bool> stop{false};
  std::atomic<int> phase{kCalm};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> query_errors{0};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> commit_errors{0};
  LatencyHistogram query_hist[kPhases];

  std::thread writer([&] {
    auto* txns = cluster.rw()->txn_manager();
    int64_t next_pk = 1'000'000;
    while (!stop.load(std::memory_order_relaxed)) {
      Transaction txn;
      txns->Begin(&txn);
      Status s = txns->Insert(&txn, 1, {next_pk++, int64_t(0)});
      if (s.ok()) s = txns->Commit(&txn);
      if (s.ok()) {
        commits.fetch_add(1, std::memory_order_relaxed);
      } else {
        commit_errors.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  const LogicalRef plan =
      LAgg(LScan(1, {0}), {}, {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<std::thread> clients;
  for (int c = 0; c < n_clients; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Timer q;
        std::vector<Row> out;
        Status s = cluster.proxy()->ExecuteQuery(plan, &out);
        const int ph = phase.load(std::memory_order_relaxed);
        query_hist[ph].Record(q.ElapsedMicros());
        queries.fetch_add(1, std::memory_order_relaxed);
        if (!s.ok() || out.empty()) {
          query_errors.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }

  auto sleep_phase = [&] {
    std::this_thread::sleep_for(
        std::chrono::microseconds(uint64_t(phase_secs * 1e6)));
  };

  // Phase 1: calm baseline.
  sleep_phase();

  // Phase 2: storm — ro1's replication log reads start failing. Scope-tagged
  // to that node's coordinator thread: the peer and the replacement (fresh
  // scope tags) see a healthy device, exactly like one bad disk in a fleet.
  phase.store(kStorm);
  double time_to_recover_s = -1.0;
  {
    fault::Policy die;
    die.kind = fault::Kind::kFail;
    die.scope = "ro1";
    fault::ScopedFault storm("logstore.read", die);
    Timer recover_t;
    while (recover_t.ElapsedSeconds() < recover_timeout_s) {
      if (cluster.evictions() >= 1 && cluster.replacements() >= 1 &&
          cluster.ro_nodes().size() >= target_fleet) {
        time_to_recover_s = recover_t.ElapsedSeconds();
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  // Phase 3: healed — fault disarmed, replacement re-admitted.
  phase.store(kHealed);
  sleep_phase();

  stop.store(true);
  writer.join();
  for (auto& c : clients) c.join();

  const uint64_t total_q = queries.load();
  const uint64_t errors = query_errors.load();
  const double success_rate =
      total_q == 0 ? 0.0
                   : double(total_q - errors) / double(total_q);
  const bool recovered = time_to_recover_s >= 0.0;

  BenchReport report("chaos");
  report.Metric("smoke", smoke ? 1 : 0);
  report.Metric("clients", n_clients);
  report.Metric("phase_secs", phase_secs);
  report.Metric("queries", static_cast<double>(total_q));
  report.Metric("query_errors", static_cast<double>(errors));
  report.Metric("success_rate", success_rate);
  report.Metric("min_success_rate_gate", min_success_rate);
  report.Metric("commits", static_cast<double>(commits.load()));
  report.Metric("commit_errors", static_cast<double>(commit_errors.load()));
  report.Metric("evictions", static_cast<double>(cluster.evictions()));
  report.Metric("replacements", static_cast<double>(cluster.replacements()));
  report.Metric("rw_fallbacks",
                static_cast<double>(cluster.proxy()->rw_fallbacks()));
  report.Metric("time_to_recover_s", time_to_recover_s);
  report.Metric("recover_timeout_s_gate", recover_timeout_s);

  std::printf("# chaos availability | %llu queries, %llu errors "
              "(success %.5f), recover %.3fs\n",
              (unsigned long long)total_q, (unsigned long long)errors,
              success_rate, time_to_recover_s);
  std::printf("%-8s %10s %10s %10s %10s\n", "phase", "p50_ms", "p95_ms",
              "p99_ms", "p999_ms");
  for (int ph = 0; ph < kPhases; ++ph) {
    std::printf("%-8s %10.3f %10.3f %10.3f %10.3f\n", kPhaseNames[ph],
                query_hist[ph].Percentile(0.5) / 1000.0,
                query_hist[ph].Percentile(0.95) / 1000.0,
                query_hist[ph].Percentile(0.99) / 1000.0,
                query_hist[ph].Percentile(0.999) / 1000.0);
    report.Row()
        .Set("phase", ph)
        .Set("success_rate", success_rate)
        .Hist(kPhaseNames[ph], query_hist[ph]);
  }
  report.Write();

  bool ok = true;
  if (success_rate < min_success_rate) {
    std::fprintf(stderr,
                 "GATE FAILED: success_rate %.5f < %.3f (%llu/%llu failed)\n",
                 success_rate, min_success_rate, (unsigned long long)errors,
                 (unsigned long long)total_q);
    ok = false;
  }
  if (!recovered) {
    std::fprintf(stderr,
                 "GATE FAILED: fleet did not recover within %.1fs "
                 "(evictions=%llu replacements=%llu fleet=%zu/%zu)\n",
                 recover_timeout_s, (unsigned long long)cluster.evictions(),
                 (unsigned long long)cluster.replacements(),
                 cluster.ro_nodes().size(), target_fleet);
    ok = false;
  }
  return ok ? 0 : 1;
}
