// Point-in-time recovery tests: Cluster::RestoreToLsn over the archive tier.
//
// The live cluster recycles redo segments after checkpoints, destroying the
// only history a plain crash-recovery replay could use. With the archive
// tier sealing every segment before truncation, RestoreToLsn can target an
// LSN far *below* the recycle watermark and still reproduce exactly the
// durable prefix at the cut — the property these tests pin against a
// transaction-by-transaction model of the workload. The flip side is
// integrity: a torn or truncated archive must surface as Corruption, never
// as a silently shorter history.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "archive/archive.h"
#include "common/fault.h"
#include "log/log_store.h"
#include "tests/test_util.h"

namespace imci {
namespace {

std::shared_ptr<const Schema> KvSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  cols.push_back({"payload", DataType::kString, true, true});
  return std::make_shared<Schema>(1, "kv", cols, 0);
}

/// One committed single-op transaction: put (pk -> v, payload) at commit_lsn.
struct CommitMark {
  Lsn lsn = 0;
  Vid vid = 0;
  int64_t pk = 0;
  int64_t v = 0;
  std::string payload;
};

/// Expected table contents for the durable prefix ending at `cut`.
std::vector<Row> ModelAt(const std::vector<CommitMark>& commits, Lsn cut) {
  std::map<int64_t, std::pair<int64_t, std::string>> model;
  for (int64_t pk = 0; pk < 10; ++pk) model[pk] = {0, "base"};
  for (const CommitMark& c : commits) {
    if (c.lsn > cut) continue;
    model[c.pk] = {c.v, c.payload};
  }
  std::vector<Row> rows;
  for (const auto& [pk, vp] : model) {
    rows.push_back({pk, vp.first, vp.second});
  }
  return rows;
}

/// Both engines of a restored node, plus the replica row count, must equal
/// the model at the cut.
void CheckRestored(Cluster::RestoredCluster* r, const std::vector<Row>& want) {
  std::vector<Row> row_scan;
  ASSERT_TRUE(r->node->ExecuteRow(LScan(1, {0, 1, 2}), &row_scan).ok());
  EXPECT_EQ(testing_util::Canonicalize(row_scan),
            testing_util::Canonicalize(want));
  std::vector<Row> col_scan;
  ASSERT_TRUE(r->node->ExecuteColumn(LScan(1, {0, 1, 2}), &col_scan).ok());
  EXPECT_EQ(testing_util::Canonicalize(col_scan),
            testing_util::Canonicalize(want));
  RowTable* replica = r->node->engine()->GetTable(1);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->row_count(), want.size());
}

class RestoreTest : public ::testing::Test {
 protected:
  /// Anchor-retention cap the fixture's cluster runs with (0 = unbounded);
  /// the GC suite below overrides it.
  virtual size_t Retention() const { return 0; }

  void SetUp() override {
    ClusterOptions opts;
    opts.initial_ro_nodes = 1;
    opts.ro.imci.row_group_size = 256;
    opts.fs.log_segment_bytes = 512;  // small segments: recycling bites early
    opts.fs.snapshot_retention = Retention();
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(cluster_->CreateTable(KvSchema()).ok());
    std::vector<Row> rows;
    for (int64_t pk = 0; pk < 10; ++pk) {
      rows.push_back({pk, int64_t(0), std::string("base")});
    }
    ASSERT_TRUE(cluster_->BulkLoad(1, std::move(rows)).ok());
    ASSERT_TRUE(cluster_->Open().ok());
    txns_ = cluster_->rw()->txn_manager();
  }

  void Put(int64_t pk, int64_t v, const std::string& payload) {
    Transaction txn;
    txns_->Begin(&txn);
    Status s = pk < 10 ? txns_->Update(&txn, 1, pk, {pk, v, payload})
                       : txns_->Insert(&txn, 1, {pk, v, payload});
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(txns_->Commit(&txn).ok());
    commits_.push_back({txn.commit_lsn(), txn.commit_vid(), pk, v, payload});
  }

  /// Sequential single-op transactions: a mix of base-row updates and fresh
  /// inserts. Sequential means commit-LSN order == vector order, so every
  /// LSN cut maps onto a clean prefix of `commits_`.
  void Churn(int from, int n) {
    for (int i = from; i < from + n; ++i) {
      const int64_t pk = (i % 4 == 0) ? (i % 10) : 1000 + i;
      Put(pk, i, "p" + std::to_string(i));
    }
  }

  /// Quiesced leader checkpoint + segment recycling; returns the recycle
  /// watermark (history at or below it now lives only in the archive).
  Lsn CheckpointAndRecycle(uint64_t ckpt_id) {
    RoNode* leader = cluster_->leader();
    leader->StopReplication();
    EXPECT_TRUE(leader->CatchUpNow().ok());
    EXPECT_TRUE(leader->pipeline()->TakeCheckpoint(ckpt_id).ok());
    leader->StartReplication();
    Lsn recycled = 0;
    EXPECT_TRUE(cluster_->RecycleRedoLog(&recycled).ok());
    return recycled;
  }

  std::unique_ptr<Cluster> cluster_;
  TransactionManager* txns_ = nullptr;
  std::vector<CommitMark> commits_;
};

TEST_F(RestoreTest, RestoreBelowRecycleWatermarkEqualsDurablePrefix) {
  Churn(0, 80);
  const Lsn recycled = CheckpointAndRecycle(1);
  ASSERT_GT(recycled, 0u);
  EXPECT_EQ(cluster_->fs()->log("redo")->truncated_lsn(), recycled);
  Churn(80, 80);

  // The target: the last commit at or below the recycle watermark — history
  // the live log no longer holds anywhere.
  size_t k = commits_.size();
  while (k > 0 && commits_[k - 1].lsn > recycled) --k;
  ASSERT_GT(k, 1u);
  const CommitMark& mark = commits_[k - 1];

  Cluster::RestoredCluster r;
  ASSERT_TRUE(cluster_->RestoreToLsn(mark.lsn, &r).ok());
  EXPECT_EQ(r.lsn, mark.lsn);
  EXPECT_EQ(r.applied_vid, mark.vid);
  EXPECT_EQ(r.undone, 0u);  // the cut is a commit boundary
  CheckRestored(&r, ModelAt(commits_, mark.lsn));

  // Durable-prefix semantics mid-transaction: cut one LSN below the same
  // commit record. The transaction's DMLs replay but its decision does not,
  // so the restore rolls it back instead of surfacing a half-applied state.
  Cluster::RestoredCluster mid;
  ASSERT_TRUE(cluster_->RestoreToLsn(mark.lsn - 1, &mid).ok());
  EXPECT_EQ(mid.lsn, mark.lsn - 1);
  EXPECT_EQ(mid.applied_vid, commits_[k - 2].vid);
  EXPECT_GE(mid.undone, 1u);
  CheckRestored(&mid, ModelAt(commits_, mark.lsn - 1));

  // And to the live tail: the checkpoint anchor plus the archived prefix
  // spliced with the live suffix.
  const CommitMark& tail = commits_.back();
  Cluster::RestoredCluster full;
  ASSERT_TRUE(cluster_->RestoreToLsn(tail.lsn, &full).ok());
  EXPECT_EQ(full.lsn, tail.lsn);
  EXPECT_EQ(full.anchor_ckpt_id, 1u);
  EXPECT_EQ(full.applied_vid, tail.vid);
  CheckRestored(&full, ModelAt(commits_, tail.lsn));

  // All of which left the live cluster untouched.
  RoNode* live = cluster_->ro(0);
  ASSERT_TRUE(live->CatchUpNow().ok());
  std::vector<Row> live_rows;
  ASSERT_TRUE(live->ExecuteColumn(LScan(1, {0, 1, 2}), &live_rows).ok());
  EXPECT_EQ(testing_util::Canonicalize(live_rows),
            testing_util::Canonicalize(ModelAt(commits_, tail.lsn)));
}

TEST_F(RestoreTest, TornArchiveSurfacesAsCorruptionNotShorterHistory) {
  Churn(0, 60);
  const Lsn recycled = CheckpointAndRecycle(1);
  ASSERT_GT(recycled, 0u);

  ArchiveStore* arc = cluster_->fs()->archive();
  ASSERT_NE(arc, nullptr);
  std::vector<ArchivedSegment> segs;
  ASSERT_TRUE(arc->ListSegments("redo", &segs).ok());
  ASSERT_FALSE(segs.empty());
  const ArchivedSegment victim = segs.back();
  // A restore into the victim segment anchors at the base image (the only
  // anchor below it), so replay must read the victim from the archive.
  SnapshotStore::Anchor anchor;
  ASSERT_TRUE(arc->snapshots()->FindAnchor(victim.first, &anchor).ok());
  ASSERT_EQ(anchor.ckpt_id, 0u);
  ASSERT_LT(anchor.start_lsn, victim.first);

  const std::string seg_file =
      ArchiveStore::SegmentFileName("redo", victim.first);
  std::string intact;
  ASSERT_TRUE(cluster_->fs()->ReadFile(seg_file, &intact).ok());

  // A truncated segment file is detected, not silently replayed short.
  ASSERT_TRUE(cluster_->fs()
                  ->WriteFile(seg_file, intact.substr(0, intact.size() / 2))
                  .ok());
  Cluster::RestoredCluster torn;
  EXPECT_FALSE(cluster_->RestoreToLsn(victim.first, &torn).ok());

  // So is a single flipped byte at the right length.
  std::string flipped = intact;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
  ASSERT_TRUE(cluster_->fs()->WriteFile(seg_file, std::move(flipped)).ok());
  Cluster::RestoredCluster corrupt;
  EXPECT_FALSE(cluster_->RestoreToLsn(victim.first, &corrupt).ok());

  // Sanity: with the segment healed the same restore succeeds...
  ASSERT_TRUE(cluster_->fs()->WriteFile(seg_file, std::string(intact)).ok());
  Cluster::RestoredCluster healed;
  ASSERT_TRUE(cluster_->RestoreToLsn(victim.first, &healed).ok());

  // ...and a torn manifest then fails it again: the segment list itself is
  // untrusted until its trailer checksum verifies.
  const std::string manifest = ArchiveStore::ManifestFileName("redo");
  std::string mdata;
  ASSERT_TRUE(cluster_->fs()->ReadFile(manifest, &mdata).ok());
  ASSERT_TRUE(cluster_->fs()
                  ->WriteFile(manifest, mdata.substr(0, mdata.size() - 7))
                  .ok());
  Cluster::RestoredCluster gone;
  EXPECT_FALSE(cluster_->RestoreToLsn(victim.first, &gone).ok());
}

TEST_F(RestoreTest, FaultInjectedTornSealSurfacesAsCorruptionAtRestore) {
  Churn(0, 60);
  {
    // Tear the first write of the snapshot seal (the PAGES blob) — the
    // write *reports success*, exactly like a crash mid-write that the
    // device acknowledged early. Scoped to the seal path so the checkpoint
    // files written just before are untouched.
    fault::ScopedFault tear(
        "polarfs.write_file",
        fault::Policy{.kind = fault::Kind::kTorn, .hit_at = 1,
                      .keep_fraction = 0.5, .scope = "snapshot.seal"});
    const Lsn recycled = CheckpointAndRecycle(1);
    ASSERT_GT(recycled, 0u);
    ASSERT_GE(fault::Registry::Instance().fires("polarfs.write_file"), 1u);
  }
  Churn(60, 20);

  // Any restore anchored at the torn checkpoint must refuse with Corruption
  // — never a silently shorter history assembled from the truncated blob.
  const CommitMark& tail = commits_.back();
  Cluster::RestoredCluster torn;
  Status s = cluster_->RestoreToLsn(tail.lsn, &torn);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // The damage is contained to that anchor: a restore served by the intact
  // base anchor (below checkpoint 1's start LSN) still works and is exact.
  const CommitMark& early = commits_[5];
  Cluster::RestoredCluster ok;
  ASSERT_TRUE(cluster_->RestoreToLsn(early.lsn, &ok).ok());
  EXPECT_EQ(ok.anchor_ckpt_id, 0u);
  CheckRestored(&ok, ModelAt(commits_, early.lsn));
}

class RetentionRestoreTest : public RestoreTest {
 protected:
  size_t Retention() const override { return 2; }
};

// The retention satellite: capping the anchor count drops the oldest frozen
// snapshots at Register time, which raises the archive GC floor and makes
// the archived redo prefix below it reclaimable — while every restore the
// retained anchors can serve keeps working, and restores below the floor
// fail cleanly instead of replaying a gapped history.
TEST_F(RetentionRestoreTest, RetentionDropsAnchorsAndMakesLogPrefixGcEligible) {
  Churn(0, 40);
  CheckpointAndRecycle(1);
  Churn(40, 40);
  CheckpointAndRecycle(2);
  Churn(80, 40);
  CheckpointAndRecycle(3);

  ArchiveStore* arc = cluster_->fs()->archive();
  ASSERT_NE(arc, nullptr);
  SnapshotStore* snaps = arc->snapshots();
  ASSERT_EQ(snaps->retention(), 2u);

  // Base anchor and checkpoint 1 were evicted; 2 and 3 remain, and their
  // frozen blobs are the only ones left on the filesystem.
  std::vector<SnapshotStore::Anchor> anchors;
  ASSERT_TRUE(snaps->Anchors(&anchors).ok());
  ASSERT_EQ(anchors.size(), 2u);
  EXPECT_EQ(anchors.front().ckpt_id + anchors.back().ckpt_id, 5u);
  const Lsn floor = snaps->GcFloorLsn();
  EXPECT_GT(floor, 0u);
  for (const auto& a : anchors) EXPECT_GE(a.start_lsn, floor);

  // Archived segments wholly below the floor are GC-eligible (always a
  // prefix of the archived range); dropping them removes the files and the
  // manifest entries, and leaves the rest.
  std::vector<ArchivedSegment> before;
  ASSERT_TRUE(arc->ListSegments("redo", &before).ok());
  std::vector<ArchivedSegment> eligible;
  for (const auto& seg : before) {
    if (seg.last > floor) break;
    eligible.push_back(seg);
  }
  ASSERT_FALSE(eligible.empty());
  ASSERT_LT(eligible.size(), before.size());
  size_t dropped = 0;
  ASSERT_TRUE(arc->DropGcEligibleSegments("redo", &dropped).ok());
  EXPECT_EQ(dropped, eligible.size());
  for (const auto& seg : eligible) {
    std::string data;
    EXPECT_FALSE(cluster_->fs()
                     ->ReadFile(ArchiveStore::SegmentFileName("redo", seg.first),
                                &data)
                     .ok());
  }
  std::vector<ArchivedSegment> after;
  ASSERT_TRUE(arc->ListSegments("redo", &after).ok());
  ASSERT_EQ(after.size(), before.size() - eligible.size());
  EXPECT_EQ(after.front().first, before[eligible.size()].first);
  EXPECT_GT(after.front().last, floor);
  ASSERT_TRUE(arc->DropGcEligibleSegments("redo", &dropped).ok());
  EXPECT_EQ(dropped, 0u);

  // Every restore the retained anchors serve still works end-to-end: the
  // live tail, and the first commit above the floor (worst case — maximum
  // archived replay from the oldest retained anchor).
  const CommitMark& tail = commits_.back();
  Cluster::RestoredCluster full;
  ASSERT_TRUE(cluster_->RestoreToLsn(tail.lsn, &full).ok());
  CheckRestored(&full, ModelAt(commits_, tail.lsn));
  size_t k = 0;
  while (k < commits_.size() && commits_[k].lsn <= floor) ++k;
  ASSERT_LT(k, commits_.size());
  Cluster::RestoredCluster oldest;
  ASSERT_TRUE(cluster_->RestoreToLsn(commits_[k].lsn, &oldest).ok());
  CheckRestored(&oldest, ModelAt(commits_, commits_[k].lsn));

  // History below the floor is genuinely gone: no anchor covers it, so the
  // restore is refused rather than anchored too high.
  ASSERT_LT(commits_.front().lsn, floor);
  Cluster::RestoredCluster below;
  EXPECT_FALSE(cluster_->RestoreToLsn(commits_.front().lsn, &below).ok());
}

// Recycling deletes every column checkpoint CURRENT supersedes: a restore
// anchor links its own copies, so once the anchor cap is reached the store
// stays flat however many checkpoints follow.
TEST_F(RetentionRestoreTest, SupersededCheckpointsAreReclaimed) {
  // Distinct long payloads: a checkpoint outweighs a round's redo.
  for (int64_t pk = 10; pk < 400; ++pk) {
    Put(pk, pk, "payload-" + std::to_string(pk) + std::string(100, 'x'));
  }
  PolarFs* fs = cluster_->fs();
  auto file_bytes = [&](const std::string& prefix) {
    uint64_t n = 0;
    for (const std::string& name : fs->ListFiles(prefix)) {
      std::string data;
      EXPECT_TRUE(fs->ReadFile(name, &data).ok());
      n += data.size();
    }
    return n;
  };
  constexpr uint64_t kSettled = 3;  // anchors reach the cap of 2 at id 2
  constexpr uint64_t kCheckpoints = 8;
  uint64_t settled_bytes = 0;
  uint64_t ckpt_bytes = 0;
  for (uint64_t id = 1; id <= kCheckpoints; ++id) {
    for (int64_t pk = 0; pk < 4; ++pk) {
      Put(pk, static_cast<int64_t>(id), "r" + std::to_string(id));
    }
    CheckpointAndRecycle(id);
    const std::string dir = "imci_ckpt/" + std::to_string(id) + "/";
    for (const std::string& f : fs->ListFiles("imci_ckpt/")) {
      EXPECT_TRUE(f == "imci_ckpt/CURRENT" || f.rfind(dir, 0) == 0)
          << f << " survives checkpoint " << id;
    }
    if (id == kSettled) {
      settled_bytes = fs->stored_bytes();
      ckpt_bytes = file_bytes(dir);
    }
  }
  ASSERT_GT(ckpt_bytes, 0u);
  EXPECT_LT(fs->stored_bytes(), settled_bytes + ckpt_bytes)
      << kCheckpoints - kSettled << " checkpoints of " << ckpt_bytes
      << " bytes grew the store from " << settled_bytes;

  // Every retained anchor restores its own cut: the first commit above its
  // start LSN is served from it.
  Put(5, -1, "after");
  std::vector<SnapshotStore::Anchor> anchors;
  ASSERT_TRUE(fs->archive()->snapshots()->Anchors(&anchors).ok());
  ASSERT_EQ(anchors.size(), 2u);
  for (const SnapshotStore::Anchor& a : anchors) {
    SCOPED_TRACE(a.ckpt_id);
    size_t k = 0;
    while (k < commits_.size() && commits_[k].lsn <= a.start_lsn) ++k;
    ASSERT_LT(k, commits_.size());
    Cluster::RestoredCluster r;
    ASSERT_TRUE(cluster_->RestoreToLsn(commits_[k].lsn, &r).ok());
    EXPECT_EQ(r.anchor_ckpt_id, a.ckpt_id);
    CheckRestored(&r, ModelAt(commits_, commits_[k].lsn));
  }
}

}  // namespace
}  // namespace imci
