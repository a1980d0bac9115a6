// Reproduces Figure 13 (+ §8.4 text numbers): maximum throughput of each
// replay component vs. the RW node's OLTP throughput. The paper's claim:
// locator updates and Data Pack writes sustain x30-x61 the RW commit rate,
// physical log parse ~34k entries/s/thread, commits ~459k/s — i.e. the
// column-index components are never the bottleneck.
#include "bench/bench_util.h"

using namespace imci;
using namespace imci::bench;

namespace {

std::shared_ptr<const Schema> BenchSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"a", DataType::kInt64, false, true});
  cols.push_back({"b", DataType::kDouble, false, true});
  cols.push_back({"c", DataType::kString, false, true});
  return std::make_shared<Schema>(1, "bench", cols, 0);
}

double LocatorTput(int threads, double secs) {
  RidLocator locator(1 << 18);
  return DriveOltp(threads, secs, [&](int t) {
    thread_local Rng rng(t + 1);
    locator.Put(static_cast<int64_t>(rng.Next() % 10'000'000),
                rng.Next());
  });
}

double PackWriteTput(int threads, double secs) {
  ColumnIndexOptions o;
  o.row_group_size = 65536;
  ColumnIndex index(BenchSchema(), o);
  return DriveOltp(threads, secs, [&](int t) {
    thread_local Rng rng(t + 1);
    thread_local int64_t seq = t * 100'000'000LL;
    (void)index.Insert({seq++, static_cast<int64_t>(rng.Next() % 1000),
                  rng.UniformDouble(), std::string("val")}, 1);
  });
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = Flag(argc, argv, "smoke", 0) != 0;
  const double secs = Flag(argc, argv, "secs", smoke ? 0.2 : 1.0);
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8, 16};

  // Reference point: RW OLTP max throughput (TPC-C mix, saturated).
  chbench::ChBench bench(4, 500);
  auto cluster = MakeChBenchCluster(&bench);
  if (!cluster) return 1;
  auto* txns = cluster->rw()->txn_manager();
  const double rw_tps = DriveOltp(16, secs, [&](int t) {
    thread_local Rng rng(7 + t);
    (void)bench.RunTransaction(txns, &rng);
  });
  (void)cluster->ro(0)->CatchUpNow();

  std::printf("# Figure 13 | component max throughput (ops/s) vs RW OLTP\n");
  std::printf("# RW OLTP max: %.0f txn/s\n", rw_tps);
  std::printf("%-10s %16s %18s\n", "threads", "update_locator",
              "update_data_packs");
  BenchReport report("fig13_replay");
  report.Metric("rw_oltp_tps", rw_tps);
  report.Metric("smoke", smoke ? 1 : 0);
  for (int threads : thread_counts) {
    const double locator = LocatorTput(threads, secs);
    const double packs = PackWriteTput(threads, secs);
    report.Row()
        .Set("threads", threads)
        .Set("update_locator_ops", locator)
        .Set("update_data_packs_ops", packs);
    std::printf("%-10d %16.0f %18.0f\n", threads, locator, packs);
  }

  // Phase#1 replay throughput on the row-store replica: replay the log the
  // TPC-C run above produced, single-shot.
  {
    ClusterOptions opts;
    chbench::ChBench b2(4, 500);
    auto c2 = MakeChBenchCluster(&b2, opts);
    auto* t2 = c2->rw()->txn_manager();
    DriveOltp(16, secs, [&](int t) {
      thread_local Rng rng(70 + t);
      (void)b2.RunTransaction(t2, &rng);
    });
    // Boot a second RO node and time its full-log catch-up (pure replay).
    RoNode* fresh = nullptr;
    (void)c2->AddRoNode(&fresh);
    Timer t;
    (void)fresh->CatchUpNow();
    const double replay_secs = t.ElapsedSeconds();
    const uint64_t records = fresh->pipeline()->parser()->records_applied();
    const uint64_t ops = fresh->pipeline()->applied_ops();
    std::printf("replay_on_row_store: %.0f records/s (%lu records in %.2fs); "
                "phase2 apply: %.0f ops/s\n",
                records / std::max(replay_secs, 1e-9),
                (unsigned long)records, replay_secs,
                ops / std::max(replay_secs, 1e-9));
    report.Metric("replay_records_per_s",
                  records / std::max(replay_secs, 1e-9));
    report.Metric("phase2_apply_ops_per_s",
                  ops / std::max(replay_secs, 1e-9));
  }

  // §8.4 micro numbers: physical log parse per thread and commit rate.
  {
    PolarFs fs;
    Catalog catalog;
    auto schema = BenchSchema();
    catalog.Register(schema);
    RowStoreEngine rw(&fs, &catalog);
    (void)rw.CreateTable(schema);
    RedoWriter writer(fs.log("redo"));
    LockManager locks;
    TransactionManager tm(&rw, &writer, &locks);
    Timer commit_t;
    int commits = 0;
    while (commit_t.ElapsedSeconds() < secs) {
      Transaction txn;
      tm.Begin(&txn);
      (void)tm.Insert(&txn, 1, {int64_t(commits), int64_t(commits), 0.5,
                          std::string("x")});
      (void)tm.Commit(&txn);
      ++commits;
    }
    std::printf("single_thread_commit: %.0f commits/s\n",
                commits / commit_t.ElapsedSeconds());
    report.Metric("single_thread_commits_per_s",
                  commits / commit_t.ElapsedSeconds());
    // Parse throughput: deserialize the produced log.
    std::vector<std::string> raw;
    fs.log("redo")->Read(0, writer.written_lsn(), &raw);
    Timer parse_t;
    size_t parsed = 0;
    for (const auto& buf : raw) {
      RedoRecord rec;
      if (RedoRecord::Deserialize(buf.data(), buf.size(), &rec).ok()) {
        ++parsed;
      }
    }
    std::printf("log_parse_per_thread: %.0f entries/s (%zu entries)\n",
                parsed / std::max(parse_t.ElapsedSeconds(), 1e-9), parsed);
    report.Metric("log_parse_entries_per_s",
                  parsed / std::max(parse_t.ElapsedSeconds(), 1e-9));
  }
  std::printf("# paper: locator/pack tput x30.2-x61.3 of RW OLTP; parse "
              "~34k/s/thread; commit ~459k/s\n");
  report.Write();
  return 0;
}
