// Point-in-time recovery bench: restore throughput and time-to-first-query
// of Cluster::RestoreToLsn over the archive tier. An OLTP burst interleaved
// with checkpoints + segment recycling leaves most of the history archived;
// the bench then restores (a) to an LSN below the recycle watermark — pure
// archive replay — and (b) to the live tail — anchor + archived prefix +
// live suffix splice — and reports, per target, the wall-clock restore
// time, the archived bytes moved per second, and the latency until the
// restored node answers its first query. Results land in
// BENCH_restore.json.
#include "archive/archive.h"
#include "bench/bench_util.h"
#include "log/log_store.h"

using namespace imci;
using namespace imci::bench;

namespace {

std::shared_ptr<const Schema> BenchSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  cols.push_back({"payload", DataType::kString, true, true});
  return std::make_shared<Schema>(1, "kv", cols, 0);
}

/// Bytes RestoreToLsn moved out of the archive for `r`: the anchor snapshot
/// plus every archived segment overlapping the replayed range.
double RestoredMegabytes(ArchiveStore* arc, const Cluster::RestoredCluster& r) {
  uint64_t bytes = 0;
  std::vector<SnapshotStore::Anchor> anchors;
  if (arc->snapshots()->Anchors(&anchors).ok()) {
    for (const auto& a : anchors) {
      if (a.ckpt_id == r.anchor_ckpt_id) bytes += a.bytes;
    }
  }
  std::vector<ArchivedSegment> segs;
  if (arc->ListSegments("redo", &segs).ok()) {
    for (const auto& s : segs) {
      if (s.last > r.lsn) continue;  // only fully-replayed archived segments
      if (s.first > r.lsn) break;
      bytes += s.bytes;
    }
  }
  return bytes / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = Flag(argc, argv, "smoke", 0) != 0;
  const int total_txns =
      static_cast<int>(Flag(argc, argv, "txns", smoke ? 400 : 20000));

  ClusterOptions opts;
  opts.initial_ro_nodes = 1;
  opts.ro.imci.row_group_size = 4096;
  opts.fs.log_segment_bytes = 16 * 1024;  // recycling bites mid-run
  Cluster cluster(opts);
  if (!cluster.CreateTable(BenchSchema()).ok()) return 1;
  std::vector<Row> base;
  for (int64_t pk = 0; pk < 1000; ++pk) {
    base.push_back({pk, int64_t(0), std::string("base-payload")});
  }
  if (!cluster.BulkLoad(1, std::move(base)).ok()) return 1;
  if (!cluster.Open().ok()) return 1;

  // OLTP burst with two checkpoint + recycle cycles at 1/3 and 2/3: by the
  // end, the first third of the history survives only in the archive.
  auto* txns = cluster.rw()->txn_manager();
  Rng rng(42);
  Lsn below_watermark = 0;  // a commit LSN recycling later destroys
  Lsn recycled = 0;
  uint64_t ckpt_id = 0;
  auto checkpoint_and_recycle = [&] {
    RoNode* leader = cluster.leader();
    leader->StopReplication();
    (void)leader->CatchUpNow();
    (void)leader->pipeline()->TakeCheckpoint(++ckpt_id);
    leader->StartReplication();
    (void)cluster.RecycleRedoLog(&recycled);
  };
  Timer load_t;
  for (int i = 0; i < total_txns; ++i) {
    Transaction txn;
    txns->Begin(&txn);
    const int64_t pk = static_cast<int64_t>(rng.Next() % 1000);
    (void)txns->Update(&txn, 1, pk,
                 {pk, int64_t(i), std::string("updated-") + std::to_string(i)});
    (void)txns->Insert(&txn, 1,
                 {int64_t(10000 + i), int64_t(i), std::string("inserted")});
    (void)txns->Commit(&txn);
    if (i == total_txns / 6) {
      // Deep inside the history the first recycle destroys: restoring here
      // must replay archived segments over the base snapshot.
      below_watermark = txn.commit_lsn();
    } else if (i == total_txns / 3 || i == 2 * total_txns / 3) {
      checkpoint_and_recycle();
    }
  }
  const double load_secs = load_t.ElapsedSeconds();
  const Lsn tail = cluster.fs()->log("redo")->written_lsn();
  ArchiveStore* arc = cluster.fs()->archive();
  if (below_watermark == 0 || below_watermark > recycled) {
    std::fprintf(stderr, "setup failed: watermark=%llu recycled=%llu\n",
                 (unsigned long long)below_watermark,
                 (unsigned long long)recycled);
    return 1;
  }

  BenchReport report("restore");
  report.Metric("smoke", smoke ? 1 : 0);
  report.Metric("txns", total_txns);
  report.Metric("load_tps", total_txns / std::max(load_secs, 1e-9));
  report.Metric("recycle_watermark_lsn", static_cast<double>(recycled));
  report.Metric("archived_segments",
                static_cast<double>(arc->sealed_segments()));
  report.Metric("archived_mb",
                arc->sealed_bytes() / (1024.0 * 1024.0));

  std::printf("# PITR restore | %d txns, recycle watermark at LSN %llu, "
              "tail at %llu\n",
              total_txns, (unsigned long long)recycled,
              (unsigned long long)tail);
  std::printf("%-18s %12s %12s %14s %12s\n", "target", "lsn", "restore_s",
              "restore_mb/s", "first_q_ms");

  struct Target {
    const char* name;
    Lsn lsn;
  };
  const Target targets[] = {
      {"below_watermark", below_watermark},
      {"live_tail", tail},
  };
  for (const Target& t : targets) {
    Timer restore_t;
    Cluster::RestoredCluster r;
    Status s = cluster.RestoreToLsn(t.lsn, &r);
    const double restore_secs = restore_t.ElapsedSeconds();
    if (!s.ok()) {
      std::fprintf(stderr, "restore to %llu failed: %s\n",
                   (unsigned long long)t.lsn, s.ToString().c_str());
      return 1;
    }
    // Time-to-first-query: the restored node is already caught up and
    // undone; this is the marginal cost of the first analytical answer.
    Timer query_t;
    std::vector<Row> out;
    auto plan = LAgg(LScan(1, {0}), {}, {AggSpec{AggKind::kCountStar, nullptr}});
    if (!r.node->ExecuteColumn(plan, &out).ok() || out.empty()) return 1;
    const double first_query_ms = query_t.ElapsedSeconds() * 1000.0;
    const double mb = RestoredMegabytes(arc, r);
    std::printf("%-18s %12llu %12.3f %14.1f %12.2f\n", t.name,
                (unsigned long long)r.lsn, restore_secs,
                mb / std::max(restore_secs, 1e-9), first_query_ms);
    report.Row()
        .Set("lsn", static_cast<double>(r.lsn))
        .Set("anchor_ckpt_id", static_cast<double>(r.anchor_ckpt_id))
        .Set("applied_vid", static_cast<double>(r.applied_vid))
        .Set("rows_visible", static_cast<double>(AsInt(out[0][0])))
        .Set("restore_secs", restore_secs)
        .Set("restored_mb", mb)
        .Set("restore_mb_per_s", mb / std::max(restore_secs, 1e-9))
        .Set("time_to_first_query_ms", restore_secs * 1000.0 + first_query_ms)
        .Set("first_query_ms", first_query_ms);
  }
  report.Write();
  return 0;
}
