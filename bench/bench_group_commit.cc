// The commit-scalability curve: N client threads drive commit-heavy
// sysbench writes against the RW commit path and we measure how durability
// cost scales with concurrency. With leader-based group commit
// (LogStore::SyncTo) the fsync count scales with *batch* count —
// one client pays one fsync per commit, 16 clients share a handful per
// batch — so commits/s keeps climbing while fsyncs-per-commit collapses.
// This is the commit ceiling the paper's RW node needs lifted for its OLTP
// numbers, and the baseline against which Fig. 11's "extra binlog fsync"
// argument is measured.
//
// Exits nonzero unless the durable path shows real batching: at 16 clients,
// fsyncs-per-commit < 0.5 and commits/s above the single-client rate.
#include <algorithm>

#include "bench/bench_util.h"

using namespace imci;
using namespace imci::bench;

namespace {

struct Point {
  double commits_per_s = 0;
  double p99_commit_ms = 0;
  double mean_commit_ms = 0;
  double mean_batch_size = 0;
  double fsyncs_per_commit = 0;
  double versions_per_commit = 0;
};

/// One configuration: a fresh RW commit path (no cluster — the ceiling is an
/// RW-local property), `clients` threads committing single-insert sysbench
/// transactions for `secs`, optionally with the binlog arm enabled.
Point RunClients(int clients, double secs, uint32_t fsync_us, bool binlog) {
  PolarFs::Options fopts;
  fopts.fsync_latency_us = fsync_us;
  PolarFs fs(fopts);
  Catalog catalog;
  RowStoreEngine engine(&fs, &catalog);
  sysbench::Sysbench sb(/*tables=*/8, /*rows=*/0,
                        sysbench::Pattern::kInsertOnly);
  for (auto& schema : sb.Schemas()) {
    if (!engine.CreateTable(schema).ok()) return {};
  }
  RedoWriter redo(fs.log("redo"));
  LockManager locks;
  BinlogWriter blog(fs.log("binlog"));
  TransactionManager txns(&engine, &redo, &locks, &blog);
  txns.set_binlog_enabled(binlog);

  LatencyHistogram commit_lat;
  const uint64_t fsyncs0 = fs.fsync_count();
  const uint64_t batches0 = fs.commit_batches();
  const uint64_t batched0 = fs.batched_commits();
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (int t = 0; t < clients; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(23 + t);
      Zipf zipf(1000, 0.99, 23 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        // RunOp is one single-statement transaction: Begin + Insert +
        // Commit. The durable wait inside Commit dominates under fsync
        // latency, so op latency ~= commit latency.
        Timer op;
        if (sb.RunOp(&txns, t, &rng, &zipf).ok()) {
          commit_lat.Record(op.ElapsedMicros());
        }
      }
    });
  }
  // Measure spawn-to-join like DriveOltp: commits landing in the spawn and
  // stop/drain windows are inside the denominator too, so the multi-client
  // points aren't inflated relative to the 1-client one.
  Timer timer;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<uint64_t>(secs * 1e6)));
  stop.store(true);
  for (auto& w : workers) w.join();
  const double elapsed = timer.ElapsedSeconds();

  Point p;
  const uint64_t commits = txns.commits();
  const uint64_t fsyncs = fs.fsync_count() - fsyncs0;
  const uint64_t batches = fs.commit_batches() - batches0;
  const uint64_t batched = fs.batched_commits() - batched0;
  p.commits_per_s = commits / elapsed;
  p.p99_commit_ms = commit_lat.Percentile(0.99) / 1000.0;
  p.mean_commit_ms = commit_lat.MeanMicros() / 1000.0;
  p.mean_batch_size =
      batches == 0 ? 0.0 : static_cast<double>(batched) / batches;
  p.fsyncs_per_commit =
      commits == 0 ? 0.0 : static_cast<double>(fsyncs) / commits;
  // MVCC cost of the commit path: arena versions allocated per commit
  // (insert-only sysbench should sit at ~1.0 — anything above means the
  // write path double-installs).
  p.versions_per_commit =
      commits == 0 ? 0.0
                   : static_cast<double>(
                         engine.MvccStatsSnapshot().versions_installed) /
                         commits;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = Flag(argc, argv, "smoke", 0) != 0;
  const double secs = Flag(argc, argv, "secs", smoke ? 0.3 : 1.5);
  const uint32_t fsync_us =
      static_cast<uint32_t>(Flag(argc, argv, "fsync_us", 100));
  const bool binlog = Flag(argc, argv, "binlog", 0) != 0;
  const std::vector<int> client_counts =
      smoke ? std::vector<int>{1, 4, 16} : std::vector<int>{1, 4, 16, 64};
  std::printf("# Group commit | sysbench insert-only, durable commits | "
              "fsync latency %uus%s%s\n",
              fsync_us, binlog ? " | +binlog arm" : "",
              smoke ? " | smoke" : "");
  std::printf("%-10s %12s %14s %14s %12s %16s %16s\n", "clients",
              "commits/s", "mean_commit_ms", "p99_commit_ms", "batch_size",
              "fsyncs/commit", "versions/commit");
  BenchReport report("group_commit");
  report.Label("workload", "sysbench-insert-only");
  report.Metric("fsync_latency_us", fsync_us);
  report.Metric("binlog", binlog ? 1 : 0);
  report.Metric("smoke", smoke ? 1 : 0);
  // Warm-up: allocator arenas and code paths, uncounted.
  RunClients(4, secs / 4, fsync_us, binlog);
  double tput_1 = 0, tput_16 = 0, fpc_16 = 1.0, batch_16 = 0, vpc_16 = 0;
  for (int clients : client_counts) {
    const Point p = RunClients(clients, secs, fsync_us, binlog);
    if (clients == 1) tput_1 = p.commits_per_s;
    if (clients == 16) {
      tput_16 = p.commits_per_s;
      fpc_16 = p.fsyncs_per_commit;
      batch_16 = p.mean_batch_size;
      vpc_16 = p.versions_per_commit;
    }
    report.Row()
        .Set("clients", clients)
        .Set("commits_per_s", p.commits_per_s)
        .Set("mean_commit_ms", p.mean_commit_ms)
        .Set("p99_commit_ms", p.p99_commit_ms)
        .Set("mean_batch_size", p.mean_batch_size)
        .Set("fsyncs_per_commit", p.fsyncs_per_commit)
        .Set("versions_per_commit", p.versions_per_commit);
    std::printf("%-10d %12.0f %14.3f %14.3f %12.1f %16.3f %16.3f\n", clients,
                p.commits_per_s, p.mean_commit_ms, p.p99_commit_ms,
                p.mean_batch_size, p.fsyncs_per_commit, p.versions_per_commit);
  }
  // Headline metrics for the trend tracker (scripts/collect_bench_trends.py):
  // the commit ceiling across PRs is this pair at 16 clients.
  report.Metric("fsyncs_per_commit", fpc_16);
  report.Metric("mean_batch_size", batch_16);
  report.Metric("versions_per_commit", vpc_16);
  report.Metric("speedup_16_over_1", tput_1 > 0 ? tput_16 / tput_1 : 0);
  const bool ok = fpc_16 < 0.5 && tput_16 > tput_1;
  report.Metric("scaling_verified", ok ? 1 : 0);
  std::printf("# durable path %s: 16-client fsyncs/commit %.3f (< 0.5 "
              "required), speedup over 1 client x%.2f, "
              "versions-allocated/commit %.3f\n",
              ok ? "BATCHES" : "FAILED TO BATCH", fpc_16,
              tput_1 > 0 ? tput_16 / tput_1 : 0, vpc_16);
  report.Write();
  return ok ? 0 : 1;
}
