// Restore anchors share PolarFs buffers instead of copying the store.
//
// Each anchor links the live page images and files; later writes swap new
// buffers into the live store, so an anchor costs only what changed after
// it, and still restores exactly its own cut. The links are seal writes:
// tearing any one of them, or the listing that checks them, must surface as
// Corruption at restore.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "common/fault.h"
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

class SnapshotStoreTest : public ::testing::Test {
 protected:
  void Boot(int64_t rows) {
    ClusterOptions opts;
    opts.initial_ro_nodes = 1;
    opts.ro.imci.row_group_size = 256;
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(cluster_->CreateTable(KvSchema()).ok());
    std::vector<Row> base;
    for (int64_t pk = 0; pk < rows; ++pk) {
      base.push_back({pk, int64_t(0), Payload(pk, 0)});
      model_[pk] = 0;
    }
    ASSERT_TRUE(cluster_->BulkLoad(1, std::move(base)).ok());
    ASSERT_TRUE(cluster_->Open().ok());
    snaps_ = cluster_->fs()->archive()->snapshots();
  }

  static std::string Payload(int64_t pk, int64_t v) {
    return std::string(80, static_cast<char>('a' + (pk + v) % 26));
  }

  void Update(int64_t pk, int64_t v) {
    TransactionManager* txns = cluster_->rw()->txn_manager();
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Update(&txn, 1, pk, {pk, v, Payload(pk, v)}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
    model_[pk] = v;
  }

  void Checkpoint(uint64_t ckpt_id) {
    RoNode* leader = cluster_->leader();
    leader->StopReplication();
    ASSERT_TRUE(leader->CatchUpNow().ok());
    ASSERT_TRUE(leader->pipeline()->TakeCheckpoint(ckpt_id).ok());
    leader->StartReplication();
  }

  SnapshotStore::Anchor AnchorOf(uint64_t ckpt_id) {
    std::vector<SnapshotStore::Anchor> anchors;
    EXPECT_TRUE(snaps_->Anchors(&anchors).ok());
    for (const auto& a : anchors) {
      if (a.ckpt_id == ckpt_id) return a;
    }
    ADD_FAILURE() << "no anchor " << ckpt_id;
    return {};
  }

  SnapshotStore::Listing ListingOf(uint64_t ckpt_id) {
    std::string blob;
    EXPECT_TRUE(cluster_->fs()
                    ->ReadFile("archive/snap/" + std::to_string(ckpt_id) +
                                   "/MANIFEST",
                               &blob)
                    .ok());
    SnapshotStore::Listing listing;
    EXPECT_TRUE(SnapshotStore::Listing::Decode(blob, &listing).ok());
    return listing;
  }

  uint64_t FileBytes(const std::string& prefix) {
    uint64_t n = 0;
    for (const std::string& name : cluster_->fs()->ListFiles(prefix)) {
      std::string data;
      EXPECT_TRUE(cluster_->fs()->ReadFile(name, &data).ok());
      n += data.size();
    }
    return n;
  }

  /// Restores to `lsn` and checks both engines against `want`.
  void ExpectRestores(Lsn lsn, uint64_t want_anchor,
                      const std::map<int64_t, int64_t>& want) {
    Cluster::RestoredCluster r;
    ASSERT_TRUE(cluster_->RestoreToLsn(lsn, &r).ok());
    EXPECT_EQ(r.anchor_ckpt_id, want_anchor);
    std::vector<Row> rows;
    for (const auto& [pk, v] : want) rows.push_back({pk, v, Payload(pk, v)});
    std::vector<Row> got;
    ASSERT_TRUE(r.node->ExecuteRow(LScan(1, {0, 1, 2}), &got).ok());
    EXPECT_EQ(testing_util::Canonicalize(got),
              testing_util::Canonicalize(rows));
    ASSERT_TRUE(r.node->ExecuteColumn(LScan(1, {0, 1, 2}), &got).ok());
    EXPECT_EQ(testing_util::Canonicalize(got),
              testing_util::Canonicalize(rows));
  }

  std::unique_ptr<Cluster> cluster_;
  SnapshotStore* snaps_ = nullptr;
  std::map<int64_t, int64_t> model_;  // pk -> v
};

// N checkpoints with k rows updated between them: each anchor adds about k
// page images (plus its checkpoint files), not a copy of the whole store,
// and the oldest anchor still restores its own cut.
TEST_F(SnapshotStoreTest, AnchorsGrowByChangedPagesAndKeepTheirCut) {
  constexpr int64_t kRows = 20000;
  constexpr int64_t kChanged = 4;
  constexpr uint64_t kCheckpoints = 3;
  Boot(kRows);
  PolarFs* fs = cluster_->fs();
  uint64_t page_bytes = 0;
  for (PageId id : fs->ListPages()) {
    Blob image;
    ASSERT_TRUE(fs->ReadPage(id, &image).ok());
    page_bytes += image->size();
  }
  const uint64_t page_slack = 2 * kChanged * Page::kSoftCapacityBytes;
  ASSERT_GT(page_bytes, 10 * page_slack) << "store too small to tell";

  std::map<int64_t, int64_t> at_first;
  std::map<PageId, std::string> first_pages;
  for (uint64_t ckpt = 1; ckpt <= kCheckpoints; ++ckpt) {
    for (int64_t i = 0; i < kChanged; ++i) {
      Update((i * kRows / kChanged + static_cast<int64_t>(ckpt)) % kRows,
             static_cast<int64_t>(ckpt));
    }
    const uint64_t before = fs->stored_bytes();
    Checkpoint(ckpt);
    const uint64_t growth = fs->stored_bytes() - before;
    const std::string dir = "imci_ckpt/" + std::to_string(ckpt) + "/";
    // Besides the changed pages: the new checkpoint directory, the redo the
    // updates wrote, and the anchor's listing and index.
    const uint64_t expected_other =
        FileBytes(dir) + FileBytes("archive/snap/" + std::to_string(ckpt) +
                                   "/MANIFEST") +
        64 * 1024;
    EXPECT_LE(growth, expected_other + page_slack)
        << "checkpoint " << ckpt << " grew by " << growth << " bytes";
    if (ckpt == 1) {
      at_first = model_;
      for (PageId id : fs->ListPages()) {
        Blob image;
        ASSERT_TRUE(fs->ReadPage(id, &image).ok());
        first_pages[id] = *image;  // a copy: the check must not share
      }
    }
  }

  // Anchor 1 still holds checkpoint 1's page images, byte for byte.
  const SnapshotStore::Anchor first = AnchorOf(1);
  PolarFs dest;
  ASSERT_TRUE(snaps_->Restore(first, &dest).ok());
  ASSERT_EQ(dest.ListPages().size(), first_pages.size());
  for (const auto& [id, image] : first_pages) {
    Blob restored;
    ASSERT_TRUE(dest.ReadPage(id, &restored).ok());
    EXPECT_EQ(*restored, image) << "page " << id;
  }
  // And restoring exactly at its start LSN returns its rows on both
  // engines, not the later updates.
  ExpectRestores(first.start_lsn, 1, at_first);
  EXPECT_NE(at_first, model_);
}

// Which seal write a tear hits, counted from the listing of an intact
// registration of the same anchor.
enum class Tear { kMiddlePageLink, kCheckpointFileLink, kListing, kIndex };

class TornSealTest : public SnapshotStoreTest,
                     public ::testing::WithParamInterface<Tear> {};

TEST_P(TornSealTest, TornSealWriteIsCorruptionAtRestore) {
  Boot(10);
  Update(3, 1);
  const Lsn early = cluster_->fs()->log("redo")->durable_lsn();
  const std::map<int64_t, int64_t> at_early = model_;
  Update(4, 2);
  Checkpoint(1);
  const SnapshotStore::Anchor anchor = AnchorOf(1);
  const SnapshotStore::Listing listing = ListingOf(1);
  ASSERT_GT(listing.pages.size(), 1u);
  size_t first_ckpt_file = 0;
  while (first_ckpt_file < listing.files.size() &&
         listing.files[first_ckpt_file].first.rfind("imci_ckpt/", 0) != 0) {
    ++first_ckpt_file;
  }
  ASSERT_LT(first_ckpt_file, listing.files.size());
  // Seal writes in order: page links, file links, the listing, the index.
  const size_t pages = listing.pages.size();
  const size_t files = listing.files.size();
  uint64_t hit = 0;
  switch (GetParam()) {
    case Tear::kMiddlePageLink: hit = pages / 2 + 1; break;
    case Tear::kCheckpointFileLink: hit = pages + first_ckpt_file + 1; break;
    case Tear::kListing: hit = pages + files + 1; break;
    case Tear::kIndex: hit = pages + files + 2; break;
  }
  {
    fault::ScopedFault tear(
        "polarfs.write_file",
        fault::Policy{.kind = fault::Kind::kTorn, .hit_at = hit,
                      .keep_fraction = 0.5, .scope = "snapshot.seal"});
    ASSERT_TRUE(
        snaps_->Register(anchor.ckpt_id, anchor.csn, anchor.start_lsn).ok());
    ASSERT_EQ(fault::Registry::Instance().fires("polarfs.write_file"), 1u);
  }
  const Lsn tail = cluster_->fs()->log("redo")->durable_lsn();
  Cluster::RestoredCluster torn;
  Status s = cluster_->RestoreToLsn(tail, &torn);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // A torn index loses every anchor; any other tear stays in its anchor:
  // the base anchor still restores, and sealing the same cut again heals it.
  if (GetParam() == Tear::kIndex) return;
  ExpectRestores(early, 0, at_early);
  ASSERT_TRUE(
      snaps_->Register(anchor.ckpt_id, anchor.csn, anchor.start_lsn).ok());
  ExpectRestores(tail, 1, model_);
}

INSTANTIATE_TEST_SUITE_P(
    AllSealWrites, TornSealTest,
    ::testing::Values(Tear::kMiddlePageLink, Tear::kCheckpointFileLink,
                      Tear::kListing, Tear::kIndex),
    [](const ::testing::TestParamInfo<Tear>& info) {
      switch (info.param) {
        case Tear::kMiddlePageLink: return "MiddlePageLink";
        case Tear::kCheckpointFileLink: return "CheckpointFileLink";
        case Tear::kListing: return "Listing";
        case Tear::kIndex: return "Index";
      }
      return "Unknown";
    });

// Dropping an anchor under retention deletes its links and frees the
// buffers only it held.
TEST_F(SnapshotStoreTest, RetentionDropReleasesLinks) {
  Boot(4000);
  snaps_->set_retention(1);
  PolarFs* fs = cluster_->fs();
  EXPECT_FALSE(fs->ListFiles("archive/snap/0/").empty());
  for (int64_t pk = 0; pk < 4000; pk += 40) Update(pk, 1);
  Checkpoint(1);
  EXPECT_TRUE(fs->ListFiles("archive/snap/0/").empty());
  std::vector<SnapshotStore::Anchor> anchors;
  ASSERT_TRUE(snaps_->Anchors(&anchors).ok());
  ASSERT_EQ(anchors.size(), 1u);
  EXPECT_EQ(anchors[0].ckpt_id, 1u);
  // Only anchor 1's listing entries are linked now, and every byte the
  // store holds is named by the live store, not by a dropped anchor.
  const SnapshotStore::Listing listing = ListingOf(1);
  EXPECT_EQ(fs->ListFiles("archive/snap/1/").size(),
            listing.pages.size() + listing.files.size() + 1);
  uint64_t live = 0;
  for (PageId id : fs->ListPages()) {
    Blob image;
    ASSERT_TRUE(fs->ReadPage(id, &image).ok());
    live += image->size();
  }
  for (const std::string& name : fs->ListFiles("")) {
    if (name.rfind("archive/snap/", 0) == 0) continue;
    std::string data;
    ASSERT_TRUE(fs->ReadFile(name, &data).ok());
    live += data.size();
  }
  const uint64_t own = FileBytes("archive/snap/1/MANIFEST") +
                       FileBytes("archive/snap/INDEX");
  EXPECT_EQ(fs->stored_bytes(), live + own);
}

}  // namespace
}  // namespace imci
