// End-to-end HTAP freshness test (the Figure 12 scenario): OLTP transactions
// executed on the RW node flow through the redo writer into shared storage,
// the RO replication pipeline parses and applies them to both the row-store
// replica (Phase#1) and the in-memory column indexes (Phase#2), and the two
// RO engines must converge to the RW's authoritative state with a bounded
// visibility delay.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "tests/test_util.h"
#include "workloads/chbench.h"

namespace imci {
namespace {

using chbench::ChBench;
using testing_util::Canonicalize;

constexpr chbench::ChTable kChTables[] = {
    chbench::kItem,   chbench::kWarehouse, chbench::kDistrict,
    chbench::kCustomer, chbench::kStock,   chbench::kOrder,
    chbench::kOrderLine, chbench::kNewOrder,
};

class HtapE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.initial_ro_nodes = 2;
    opts.ro.imci.row_group_size = 1024;
    cluster_ = std::make_unique<Cluster>(opts);
    bench_ = std::make_unique<ChBench>(/*warehouses=*/2, /*items=*/200);
    for (auto& schema : bench_->Schemas()) {
      ASSERT_TRUE(cluster_->CreateTable(schema).ok());
    }
    for (auto t : kChTables) {
      ASSERT_TRUE(cluster_->BulkLoad(t, bench_->Generate(t)).ok());
    }
    ASSERT_TRUE(cluster_->Open().ok());
  }

  LogicalRef ScanAll(TableId t) {
    auto schema = cluster_->catalog()->Get(t);
    std::vector<int> cols(schema->num_columns());
    std::iota(cols.begin(), cols.end(), 0);
    return LScan(t, std::move(cols));
  }

  /// The RW node's authoritative rows — the ground truth both RO engines
  /// must converge to.
  std::vector<Row> RwTruth(TableId t) {
    std::vector<Row> rows;
    TransactionManager* txns = cluster_->rw()->txn_manager();
    ReadView view = txns->OpenReadView();
    (void)txns->Scan(view, t, [&](int64_t, const Row& row) {
      rows.push_back(row);
      return true;
    });
    return rows;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<ChBench> bench_;
};

TEST_F(HtapE2eTest, RwChangesPropagateAndEnginesAgreeUnderConcurrentOltp) {
  const uint64_t seed = testing_util::TestSeed(101);
  const int txns_per_thread = testing_util::TestIters(150);
  SCOPED_TRACE(::testing::Message()
               << "IMCI_TEST_SEED=" << seed << " IMCI_TEST_ITERS="
               << txns_per_thread << " reproduces this run");

  // OLTP writers hammer the RW node while the background replication
  // pipelines tail the redo log (CALS) into both RO nodes.
  auto* txns = cluster_->rw()->txn_manager();
  constexpr int kThreads = 4;
  std::vector<std::thread> writers;
  std::atomic<int> committed{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(seed + t);
      for (int i = 0; i < txns_per_thread; ++i) {
        if (bench_->RunTransaction(txns, &rng).ok()) {
          committed.fetch_add(1);
        }
        // Busy (lock timeout) / Aborted (TPC-C 1% rollback) are expected.
      }
    });
  }
  // Meanwhile an analytical reader must keep getting consistent snapshots
  // from the column engine — never an error, never a torn read view.
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    auto plan = LAgg(LScan(chbench::kDistrict, {0}), {},
                     {AggSpec{AggKind::kCountStar, nullptr}});
    while (!stop_reader.load()) {
      std::vector<Row> out;
      Status s = cluster_->proxy()->ExecuteQuery(plan, &out);
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (s.ok()) {
        ASSERT_EQ(out.size(), 1u);
        // District rows are never inserted/deleted by the mix.
        EXPECT_EQ(AsInt(out[0][0]), 2 * 10);
      }
    }
  });
  for (auto& w : writers) w.join();
  stop_reader.store(true);
  reader.join();
  ASSERT_GT(committed.load(), 0);

  for (RoNode* ro : cluster_->ro_nodes()) {
    ASSERT_TRUE(ro->CatchUpNow().ok());
    // Every commit the RW produced was parsed and applied.
    EXPECT_EQ(ro->pipeline()->committed_txns(), txns->commits());
    EXPECT_EQ(ro->LsnDelay(), 0u);

    // Row replica (Phase#1 physical replay) and column index (Phase#2
    // logical apply) took independent paths from the same redo stream; both
    // must now equal the RW's authoritative row store, table by table.
    for (auto t : kChTables) {
      auto truth = Canonicalize(RwTruth(t));
      std::vector<Row> row_rows, col_rows;
      ASSERT_TRUE(ro->ExecuteRow(ScanAll(t), &row_rows).ok());
      ASSERT_TRUE(ro->ExecuteColumn(ScanAll(t), &col_rows).ok());
      EXPECT_EQ(Canonicalize(row_rows), truth)
          << ro->name() << " row replica diverged on table " << t;
      EXPECT_EQ(Canonicalize(col_rows), truth)
          << ro->name() << " column index diverged on table " << t;
    }

    // The CH-benCH analytical suite agrees across engines too.
    for (int q = 0; q < ChBench::kNumAnalytical; ++q) {
      std::vector<Row> row_out, col_out;
      auto row_exec = [&](const LogicalRef& plan, std::vector<Row>* out) {
        return ro->ExecuteRow(plan, out);
      };
      auto col_exec = [&](const LogicalRef& plan, std::vector<Row>* out) {
        return ro->ExecuteColumn(plan, out);
      };
      ASSERT_TRUE(
          ChBench::RunAnalytical(q, *cluster_->catalog(), row_exec, &row_out)
              .ok());
      ASSERT_TRUE(
          ChBench::RunAnalytical(q, *cluster_->catalog(), col_exec, &col_out)
              .ok());
      EXPECT_EQ(Canonicalize(col_out), Canonicalize(row_out))
          << ro->name() << " disagrees on analytical query " << q;
    }

    // The pipeline measured a visibility delay per commit, and it stayed
    // bounded (generous CI bound; the paper reports single-digit ms).
    auto* vd = ro->pipeline()->vd_histogram();
    EXPECT_GT(vd->Count(), 0u);
    EXPECT_LT(vd->Percentile(0.99), 5'000'000u) << "p99 VD above 5s";
  }

  // A strong (read-your-writes, §6.4) read through the proxy observes every
  // committed order immediately.
  std::vector<Row> strong;
  auto count_orders = LAgg(LScan(chbench::kOrder, {0}), {},
                           {AggSpec{AggKind::kCountStar, nullptr}});
  ASSERT_TRUE(cluster_->proxy()
                  ->ExecuteQuery(count_orders, &strong, Consistency::kStrong)
                  .ok());
  ASSERT_EQ(strong.size(), 1u);
  EXPECT_EQ(static_cast<uint64_t>(AsInt(strong[0][0])),
            cluster_->rw()->engine()->GetTable(chbench::kOrder)->row_count());
}

TEST_F(HtapE2eTest, CommitBecomesVisibleOnRoWithoutExplicitCatchUp) {
  // One committed transaction must surface on the RO through the background
  // pipeline alone (no CatchUpNow), within a bounded window — the liveness
  // half of the freshness claim.
  auto* txns = cluster_->rw()->txn_manager();
  Rng rng(testing_util::TestSeed(7));
  Status s;
  do {
    s = bench_->NewOrder(txns, &rng);
  } while (s.IsBusy());
  ASSERT_TRUE(s.ok()) << s.ToString();
  const Vid committed_vid = txns->last_commit_vid();

  RoNode* ro = cluster_->ro(0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ro->applied_vid() < committed_vid &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(ro->applied_vid(), committed_vid)
      << "commit not visible on RO within 10s";
}

}  // namespace
}  // namespace imci
