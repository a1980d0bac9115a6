// Reproduces Figure 11: OLTP throughput loss of the two update-propagation
// methods vs. PolarDB without IMCI. Reusing REDO logs costs almost nothing
// (the RW node's logging is unchanged); the Binlog strawman pays an extra
// durable flush and full logical row images per commit (paper: -24%..-56%).
//
// The Binlog arm's cost is all on the RW: its commits also write and fsync
// the logical binlog. In both arms the RO tails the physical redo log
// (2P-COFFER), so the arms differ only by the binlog write, and each arm's
// column indexes are verified against the RW's authoritative row store after
// the measured window.
#include <numeric>

#include "bench/bench_util.h"
#include "tests/test_util.h"

using namespace imci;
using namespace imci::bench;

namespace {

/// Verifies the RO's column indexes converged to the RW row store through
/// the real query path — the same ExecuteColumn + Canonicalize equivalence
/// check htap_e2e_test uses, which is what makes the comparison meaningful.
bool VerifyConverged(Cluster* cluster, const sysbench::Sysbench& sb) {
  RoNode* ro = cluster->ro(0);
  if (ro == nullptr || !ro->CatchUpNow().ok()) return false;
  for (int t = 0; t < sb.num_tables(); ++t) {
    const TableId table = sysbench::Sysbench::kBaseTableId + t;
    std::vector<Row> truth;
    TransactionManager* txns = cluster->rw()->txn_manager();
    ReadView view = txns->OpenReadView();
    (void)txns->Scan(view, table, [&](int64_t, const Row& row) {
      truth.push_back(row);
      return true;
    });
    auto schema = cluster->catalog()->Get(table);
    std::vector<int> cols(schema->num_columns());
    std::iota(cols.begin(), cols.end(), 0);
    std::vector<Row> applied;
    if (!ro->ExecuteColumn(LScan(table, std::move(cols)), &applied).ok()) {
      return false;
    }
    if (testing_util::Canonicalize(applied) !=
        testing_util::Canonicalize(truth)) {
      std::fprintf(stderr, "equivalence FAILED on table %u (%zu vs %zu)\n",
                   table, truth.size(), applied.size());
      return false;
    }
  }
  return true;
}

struct ArmResult {
  double tps = -1;
  /// Commit-path durability stats (leader-based group commit): fsync
  /// batches per durable commit and mean commits covered per batch.
  double fsyncs_per_commit = 0;
  double mean_batch_size = 0;
};

ArmResult RunSysbench(bool with_imci, bool binlog, int clients, double secs,
                      uint32_t fsync_us, bool* verified) {
  ClusterOptions opts;
  opts.fs.fsync_latency_us = fsync_us;
  opts.initial_ro_nodes = with_imci ? 1 : 0;
  auto cluster = std::make_unique<Cluster>(opts);
  sysbench::Sysbench sb(/*tables=*/16, /*rows=*/2000,
                        sysbench::Pattern::kInsertOnly);
  for (auto& schema : sb.Schemas()) {
    if (!cluster->CreateTable(schema).ok()) return {};
  }
  for (int t = 0; t < sb.num_tables(); ++t) {
    if (!cluster->BulkLoad(sysbench::Sysbench::kBaseTableId + t,
                           sb.Generate(t)).ok()) {
      return {};
    }
  }
  if (!cluster->Open().ok()) return {};
  auto* txns = cluster->rw()->txn_manager();
  txns->set_binlog_enabled(binlog);
  PolarFs* fs = cluster->fs();
  const uint64_t fsyncs0 = fs->fsync_count();
  const uint64_t batches0 = fs->commit_batches();
  const uint64_t batched0 = fs->batched_commits();
  const uint64_t commits0 = txns->commits();
  ArmResult r;
  r.tps = DriveOltp(clients, secs, [&](int t) {
    thread_local Rng rng(17 + t);
    thread_local Zipf zipf(2000, 0.99, 17 + t);
    (void)sb.RunOp(txns, t, &rng, &zipf);
  });
  const uint64_t commits = txns->commits() - commits0;
  const uint64_t batches = fs->commit_batches() - batches0;
  if (commits > 0) {
    r.fsyncs_per_commit =
        static_cast<double>(fs->fsync_count() - fsyncs0) / commits;
  }
  if (batches > 0) {
    r.mean_batch_size =
        static_cast<double>(fs->batched_commits() - batched0) / batches;
  }
  if (with_imci && verified != nullptr) {
    *verified = *verified && VerifyConverged(cluster.get(), sb);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = Flag(argc, argv, "smoke", 0) != 0;
  const double secs = Flag(argc, argv, "secs", smoke ? 0.3 : 1.0);
  const uint32_t fsync_us =
      static_cast<uint32_t>(Flag(argc, argv, "fsync_us", 100));
  const std::vector<int> client_counts =
      smoke ? std::vector<int>{8} : std::vector<int>{4, 8, 16, 32};
  std::printf("# Figure 11 | sysbench insert-only | fsync latency %uus%s\n",
              fsync_us, smoke ? " | smoke" : "");
  std::printf("%-10s %12s %12s %12s %10s %10s\n", "clients", "baseline",
              "reuse_redo", "binlog", "redo_loss", "binlog_loss");
  // Warm up the process (allocator arenas, code paths) so the first
  // measured configuration is not penalized.
  RunSysbench(false, false, 8, secs / 2, fsync_us, nullptr);
  BenchReport report("fig11_perturbation");
  report.Label("workload", "sysbench-insert-only");
  report.Metric("fsync_latency_us", fsync_us);
  report.Metric("smoke", smoke ? 1 : 0);
  bool verified = true;
  for (int clients : client_counts) {
    const ArmResult base =
        RunSysbench(false, false, clients, secs, fsync_us, nullptr);
    const ArmResult redo =
        RunSysbench(true, false, clients, secs, fsync_us, &verified);
    const ArmResult binlog =
        RunSysbench(true, true, clients, secs, fsync_us, &verified);
    report.Row()
        .Set("clients", clients)
        .Set("baseline_tps", base.tps)
        .Set("reuse_redo_tps", redo.tps)
        .Set("binlog_tps", binlog.tps)
        .Set("redo_loss_pct", 100.0 * (base.tps - redo.tps) / base.tps)
        .Set("binlog_loss_pct", 100.0 * (base.tps - binlog.tps) / base.tps)
        // Commit-path durability cost per arm (group commit makes these
        // per-batch): the binlog arm's extra flush shows up as roughly twice
        // the redo arm's fsyncs-per-commit, not as 2 fsyncs per txn.
        .Set("redo_fsyncs_per_commit", redo.fsyncs_per_commit)
        .Set("binlog_fsyncs_per_commit", binlog.fsyncs_per_commit)
        .Set("redo_mean_batch_size", redo.mean_batch_size)
        .Set("binlog_mean_batch_size", binlog.mean_batch_size);
    std::printf("%-10d %12.0f %12.0f %12.0f %9.1f%% %9.1f%%\n", clients,
                base.tps, redo.tps, binlog.tps,
                100.0 * (base.tps - redo.tps) / base.tps,
                100.0 * (base.tps - binlog.tps) / base.tps);
  }
  report.Metric("equivalence_verified", verified ? 1 : 0);
  std::printf("# both arms' ROs tail redo; column indexes %s the RW row "
              "store\n",
              verified ? "MATCH" : "DIVERGED from");
  std::printf("# paper: reuse-REDO loss -0.5%%..-4.8%%; Binlog loss "
              "-23.9%%..-56.3%%\n");
  report.Write();
  return verified ? 0 : 1;
}
