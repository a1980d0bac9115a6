// Distributed analytics: the multi-RO fragment coordinator.
//
// The coordinator's contract mirrors the morsel executor's one level up:
// distribution is invisible in the answer. Any fan-out, any participant
// set, any failover schedule must return what a single RO returns at the
// same snapshot — and a participant dying mid-query must never surface as
// a client-visible error. The suite drives that contract three ways:
// result equivalence over the TPC-H plan corpus, fragment failover under
// targeted fault injection and live eviction, and all-or-nothing snapshot
// visibility under concurrent RW commits (including the straggler arm
// where a lagging participant is shed via Busy). The co-partitioning rules
// are pinned directly on CutFragments, and NULL join/group keys through a
// seeded cluster of their own; proxy routing keeps lookups off the
// coordinator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "exec/serde.h"
#include "plan/fragment.h"
#include "tests/test_util.h"

namespace imci {
namespace {

using testing_util::Canonicalize;

// --- Serde round-trips --------------------------------------------------

TEST(FragmentSerdeTest, RowsRoundTripExactly) {
  const std::vector<DataType> types = {DataType::kInt64, DataType::kDouble,
                                       DataType::kString, DataType::kInt64};
  const std::vector<Row> rows = {
      Row{int64_t{42}, 3.14159265358979, std::string("abc"), Value{}},
      Row{int64_t{-7}, -0.0, std::string(""), int64_t{1} << 62}};
  std::string buf;
  PutRows(&buf, testing_util::ToRowSet(types, rows));
  ByteReader r(buf);
  RowSet back;
  ASSERT_TRUE(GetRows(&r, types, &back).ok());
  ASSERT_TRUE(r.done());
  EXPECT_EQ(back.types, types);
  ASSERT_EQ(back.batches.size(), 1u);
  EXPECT_EQ(ToRows(back), rows);
  // Truncated buffers must fail cleanly, never read out of bounds.
  for (size_t cut = 0; cut < buf.size(); cut += 3) {
    ByteReader short_r(buf.data(), cut);
    RowSet ignored;
    (void)GetRows(&short_r, types, &ignored);  // any Status is fine; no UB
  }
  // Decoded against other types: another width, or a value its column
  // cannot hold, is Corruption. An integer widens into a DOUBLE column.
  const std::vector<std::vector<DataType>> unlike = {
      {DataType::kInt64, DataType::kDouble, DataType::kString},
      {DataType::kInt64, DataType::kDouble, DataType::kString,
       DataType::kInt64, DataType::kInt64},
      {DataType::kString, DataType::kDouble, DataType::kString,
       DataType::kInt64},
      {DataType::kInt64, DataType::kInt64, DataType::kString,
       DataType::kInt64},
  };
  for (const std::vector<DataType>& other : unlike) {
    ByteReader again(buf);
    EXPECT_TRUE(GetRows(&again, other, &back).IsCorruption());
  }
  ByteReader widen(buf);
  ASSERT_TRUE(GetRows(&widen,
                      {DataType::kDouble, DataType::kDouble, DataType::kString,
                       DataType::kDouble},
                      &back)
                  .ok());
  EXPECT_EQ(back.batches[0].cols[0].dbls[0], 42.0);
}

TEST(FragmentSerdeTest, PlanRoundTripPreservesStructure) {
  auto scan = LScan(77, {0, 1, 2},
                    Ge(Col(2, DataType::kDouble), ConstDouble(1.5)));
  scan->part_col = 0;
  scan->part_has_lo = true;
  scan->part_lo = 100;
  auto plan = LSort(
      LAgg(scan, {1},
           {AggSpec{AggKind::kSum, Col(2, DataType::kDouble)},
            AggSpec{AggKind::kCountStar, nullptr}}),
      {SortKey{1, true}}, 10);
  std::string buf;
  PutPlan(&buf, plan);
  ByteReader r(buf);
  LogicalRef back;
  ASSERT_TRUE(GetPlan(&r, &back).ok());
  ASSERT_TRUE(r.done());
  std::string buf2;
  PutPlan(&buf2, back);
  EXPECT_EQ(buf, buf2);  // re-encoding the decoded plan is byte-identical
  ASSERT_EQ(back->kind, LogicalKind::kSort);
  const auto& rescan = back->children[0]->children[0];
  EXPECT_EQ(rescan->part_col, 0);
  EXPECT_TRUE(rescan->part_has_lo);
  EXPECT_EQ(rescan->part_lo, 100);
  EXPECT_FALSE(rescan->part_has_hi);
}

// --- Shared TPC-H fixture -----------------------------------------------

std::unique_ptr<Cluster> MakeDistCluster(int ros) {
  ClusterOptions opts;
  opts.initial_ro_nodes = ros;
  opts.ro.imci.row_group_size = 512;  // many groups -> real range cutting
  opts.ro.exec_threads = 4;
  // Aggressive knobs: at test scale every analytic plan should distribute,
  // so the equivalence corpus actually exercises the fan-out. A zero
  // routing threshold keeps small selective scans off the row engine,
  // which the coordinator leaves single-node.
  opts.ro.row_cost_threshold = 0.0;
  opts.coordinator.rows_per_fragment = 500.0;
  auto cluster = std::make_unique<Cluster>(opts);
  tpch::TpchGen gen(0.01);
  for (auto& schema : gen.Schemas()) {
    if (!cluster->CreateTable(schema).ok()) return nullptr;
  }
  for (auto table : {tpch::kRegion, tpch::kNation, tpch::kSupplier,
                     tpch::kPart, tpch::kPartsupp, tpch::kCustomer,
                     tpch::kOrders, tpch::kLineitem}) {
    if (!cluster->BulkLoad(table, gen.Generate(table)).ok()) return nullptr;
  }
  if (!cluster->Open().ok()) return nullptr;
  return cluster;
}

class DistExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = MakeDistCluster(3).release();
    ASSERT_NE(cluster_, nullptr);
    for (RoNode* ro : cluster_->ro_nodes()) {
      ASSERT_TRUE(ro->CatchUpNow().ok());
      ro->RefreshStats();
    }
  }
  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
  }
  void TearDown() override { fault::Registry::Instance().Reset(); }

  /// Single-RO serial reference: the executor the paper's results are
  /// defined against. Distribution must be indistinguishable from this.
  static Status Reference(const LogicalRef& plan, std::vector<Row>* out) {
    return cluster_->ro(0)->ExecuteColumn(plan, out, 1);
  }

  /// Distributed-first execution, falling back to the reference path when
  /// the coordinator declines — exactly what Proxy::ExecuteQuery does.
  static Status Distributed(const LogicalRef& plan, std::vector<Row>* out,
                            bool* attempted = nullptr) {
    bool local_attempted = false;
    Status s = cluster_->coordinator()->Execute(plan, 0, out,
                                               &local_attempted);
    if (attempted) *attempted = local_attempted;
    if (local_attempted) return s;
    return Reference(plan, out);
  }

  static Cluster* cluster_;
};

Cluster* DistExecTest::cluster_ = nullptr;

// --- Equivalence over the TPC-H corpus ----------------------------------

// Every TPC-H query through the coordinator equals the single-RO serial
// reference. Queries the coordinator declines (unsupported shapes, tiny
// subquery plans) take the fallback path and compare trivially; the counter
// assertion at the end proves a healthy share genuinely distributed.
class DistTpchEquivalence : public DistExecTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(DistTpchEquivalence, DistributedMatchesSingleNode) {
  const int q = GetParam();
  const uint64_t before = cluster_->coordinator()->queries_distributed();
  std::vector<Row> ref_rows, dist_rows;
  ASSERT_TRUE(tpch::RunQuery(q, *cluster_->catalog(), Reference, &ref_rows)
                  .ok())
      << "reference failed on Q" << q;
  auto dist_exec = [](const LogicalRef& plan, std::vector<Row>* out) {
    return Distributed(plan, out);
  };
  ASSERT_TRUE(tpch::RunQuery(q, *cluster_->catalog(), dist_exec, &dist_rows)
                  .ok())
      << "distributed failed on Q" << q;
  EXPECT_EQ(Canonicalize(dist_rows), Canonicalize(ref_rows)) << "Q" << q;
  // The well-known distributable shapes must actually fan out, or the whole
  // comparison above is vacuous.
  if (q == 1 || q == 6) {
    EXPECT_GT(cluster_->coordinator()->queries_distributed(), before)
        << "Q" << q << " was expected to distribute";
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, DistTpchEquivalence,
                         ::testing::Range(1, 23));

// These plans must round-trip bit-exactly — no Canonicalize rounding or
// sorting involved — so sorted outputs must also agree on order: the
// completion plan re-sorts the concatenated per-fragment runs under the
// single-node sort's total order (keys, then the full row). The last plan
// sorts on a DOUBLE and a STRING key in opposite directions.
TEST_F(DistExecTest, IntegerResultsBitExactAndOrdered) {
  auto li = cluster_->catalog()->GetByName("lineitem");
  const int supp = tpch::ColOf(*li, "l_suppkey");
  const int line = tpch::ColOf(*li, "l_linenumber");
  auto orders = cluster_->catalog()->GetByName("orders");
  const int price = tpch::ColOf(*orders, "o_totalprice");
  const int priority = tpch::ColOf(*orders, "o_orderpriority");
  const int okey = tpch::ColOf(*orders, "o_orderkey");
  auto agg = LAgg(LScan(li->table_id(), {line, supp}), {0},
                  {AggSpec{AggKind::kCountStar, nullptr},
                   AggSpec{AggKind::kMin, Col(1, DataType::kInt64)},
                   AggSpec{AggKind::kMax, Col(1, DataType::kInt64)}});
  auto sorted = LSort(LScan(li->table_id(), {line, supp}),
                      {SortKey{0, false}, SortKey{1, true}}, 500);
  auto by_price = LSort(LScan(orders->table_id(), {price, priority, okey}),
                        {SortKey{0, true}, SortKey{1, false}}, 100);
  for (const auto& plan : {agg, sorted, by_price}) {
    std::vector<Row> ref_rows, dist_rows;
    ASSERT_TRUE(Reference(plan, &ref_rows).ok());
    bool attempted = false;
    ASSERT_TRUE(
        cluster_->coordinator()->Execute(plan, 0, &dist_rows, &attempted)
            .ok());
    ASSERT_TRUE(attempted);
    EXPECT_EQ(dist_rows, ref_rows);  // exact, order included
  }
}

// Participant-count sweep: 2- and 3-way fan-outs of the same plan agree
// with each other and the reference (the bench gate's correctness half).
TEST_F(DistExecTest, AnswerInvariantAcrossParticipantCounts) {
  auto li = cluster_->catalog()->GetByName("lineitem");
  const int qty = tpch::ColOf(*li, "l_quantity");
  const int price = tpch::ColOf(*li, "l_extendedprice");
  auto plan = LAgg(LScan(li->table_id(), {qty, price}), {0},
                   {AggSpec{AggKind::kSum, Col(1, DataType::kDouble)},
                    AggSpec{AggKind::kAvg, Col(1, DataType::kDouble)},
                    AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> ref_rows;
  ASSERT_TRUE(Reference(plan, &ref_rows).ok());
  const auto reference = Canonicalize(ref_rows);
  auto* coord = cluster_->coordinator();
  for (int n : {2, 3}) {
    coord->set_max_participants(n);
    DistQueryStats stats;
    std::vector<Row> out;
    bool attempted = false;
    ASSERT_TRUE(coord->Execute(plan, 0, &out, &attempted, &stats).ok());
    ASSERT_TRUE(attempted) << n << " participants";
    EXPECT_EQ(stats.participants, n);
    EXPECT_GE(stats.fragments, 2);
    EXPECT_EQ(Canonicalize(out), reference) << n << " participants";
  }
  coord->set_max_participants(8);
}

// --- Key-class co-partitioning rules ------------------------------------

/// The last plan TPC-H query `q` hands to its executor, without running it
/// (valid for queries with no scalar subquery).
LogicalRef CaptureTpchPlan(const Catalog& catalog, int q) {
  LogicalRef last;
  auto capture = [&last](const LogicalRef& plan, std::vector<Row>*) {
    last = plan;
    return Status::OK();
  };
  std::vector<Row> ignored;
  EXPECT_TRUE(tpch::RunQuery(q, catalog, capture, &ignored).ok());
  return last;
}

/// One entry per scan: "table.column" for a partitioned scan, else "table".
void ScanPartitions(const Catalog& catalog, const LogicalRef& n,
                    std::multiset<std::string>* out) {
  if (n->kind == LogicalKind::kScan) {
    auto schema = catalog.Get(n->table_id);
    std::string entry = schema->name();
    if (n->part_col >= 0) entry += "." + schema->column(n->part_col).name;
    out->insert(entry);
  }
  for (const LogicalRef& c : n->children) ScanPartitions(catalog, c, out);
}

class CutRulesTest : public DistExecTest {
 protected:
  /// Cuts `plan` two ways and returns the first fragment's scan partitions;
  /// both fragments must partition the same scans.
  static std::multiset<std::string> Cut(const LogicalRef& plan) {
    const Catalog& catalog = *cluster_->catalog();
    FragmentSet fs;
    Status s = CutFragments(plan, catalog, *cluster_->ro(0)->stats(), 2, &fs);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok() || fs.fragments.size() != 2) return {};
    std::multiset<std::string> first, second;
    ScanPartitions(catalog, fs.fragments[0], &first);
    ScanPartitions(catalog, fs.fragments[1], &second);
    EXPECT_EQ(first, second);
    return first;
  }
};

TEST_F(CutRulesTest, Q21CoPartitionsLineitemAndOrdersOnOrderkey) {
  auto plan = CaptureTpchPlan(*cluster_->catalog(), 21);
  EXPECT_EQ(Cut(plan), (std::multiset<std::string>{
                           "lineitem.l_orderkey", "lineitem.l_orderkey",
                           "lineitem.l_orderkey", "orders.o_orderkey",
                           "supplier", "nation"}));
}

TEST_F(CutRulesTest, Q20CoPartitionsOnSuppkey) {
  auto plan = CaptureTpchPlan(*cluster_->catalog(), 20);
  EXPECT_EQ(Cut(plan), (std::multiset<std::string>{
                           "supplier.s_suppkey", "nation",
                           "partsupp.ps_suppkey", "part",
                           "lineitem.l_suppkey"}));
}

TEST_F(CutRulesTest, Q13CoPartitionsOnCustkey) {
  auto plan = CaptureTpchPlan(*cluster_->catalog(), 13);
  EXPECT_EQ(Cut(plan), (std::multiset<std::string>{"customer.c_custkey",
                                                   "orders.o_custkey"}));
}

// A LEFT join must not split its build side unless the probe side splits on
// the same key: here the probe's key is computed, so the (much larger)
// lineitem build side replicates and the probe splits on its PK.
TEST_F(CutRulesTest, LeftJoinBuildSideWithoutProbeKeyReplicates) {
  const Catalog& catalog = *cluster_->catalog();
  auto na = catalog.GetByName("nation");
  auto li = catalog.GetByName("lineitem");
  auto probe = LProject(
      LScan(na->table_id(), {tpch::ColOf(*na, "n_nationkey")}),
      {Add(Col(0, DataType::kInt64), ConstInt(0))});
  auto plan = LJoin(probe,
                    LScan(li->table_id(), {tpch::ColOf(*li, "l_suppkey")}),
                    {0}, {0}, JoinType::kLeft);
  EXPECT_EQ(Cut(plan), (std::multiset<std::string>{"nation.n_nationkey",
                                                   "lineitem"}));
}

// An aggregate below the cut splits only on a group column. Here the join
// key is an aggregate output and the semi join cannot split its build side
// alone, so the aggregate (and its lineitem scan) replicates.
TEST_F(CutRulesTest, AggregateJoinedOnNonGroupColumnReplicates) {
  const Catalog& catalog = *cluster_->catalog();
  auto od = catalog.GetByName("orders");
  auto li = catalog.GetByName("lineitem");
  auto per_supp = LAgg(LScan(li->table_id(), {tpch::ColOf(*li, "l_suppkey"),
                                              tpch::ColOf(*li, "l_orderkey")}),
                       {0}, {AggSpec{AggKind::kMax, Col(1, DataType::kInt64)}});
  auto plan =
      LJoin(LScan(od->table_id(), {tpch::ColOf(*od, "o_orderkey")}), per_supp,
            {0}, {1}, JoinType::kSemi);
  EXPECT_EQ(Cut(plan), (std::multiset<std::string>{"orders.o_orderkey",
                                                   "lineitem"}));
}

// A Values leaf is the coordinator's own and never goes on the wire, so a
// plan holding one, here as a join's build side, stays on one node.
TEST_F(CutRulesTest, PlanWithAValuesLeafIsNotCut) {
  const Catalog& catalog = *cluster_->catalog();
  auto li = catalog.GetByName("lineitem");
  auto plan = LJoin(LScan(li->table_id(), {tpch::ColOf(*li, "l_orderkey")}),
                    LValues({DataType::kInt64}), {0}, {0});
  FragmentSet fs;
  EXPECT_TRUE(CutFragments(plan, catalog, *cluster_->ro(0)->stats(), 2, &fs)
                  .IsNotSupported());
}

// Cutting works on a private copy: the caller's plan (with Q21's shared
// `late` subtree) is byte-identical afterwards and carries no partition.
TEST_F(CutRulesTest, CallerPlanIsNotModified) {
  const Catalog& catalog = *cluster_->catalog();
  auto plan = CaptureTpchPlan(catalog, 21);
  std::string before;
  PutPlan(&before, plan);
  FragmentSet fs;
  ASSERT_TRUE(
      CutFragments(plan, catalog, *cluster_->ro(0)->stats(), 2, &fs).ok());
  std::string after;
  PutPlan(&after, plan);
  EXPECT_EQ(after, before);
  std::multiset<std::string> parts;
  ScanPartitions(catalog, plan, &parts);
  for (const std::string& p : parts) {
    EXPECT_EQ(p.find('.'), std::string::npos) << p;
  }
}

// --- Failover -----------------------------------------------------------

// One participant's fragment service hard-fails (in-process stand-in for a
// node dying mid-query). The coordinator must re-dispatch its fragments on
// surviving peers and still answer identically — with the retry counter
// proving the failover path ran. Reverting the retry wiring makes this
// fail: the first fragment error would abandon distribution, `attempted`
// stays false, and the retries assertion reads zero.
TEST_F(DistExecTest, FragmentFailoverOnFaultedNode) {
  auto li = cluster_->catalog()->GetByName("lineitem");
  const int qty = tpch::ColOf(*li, "l_quantity");
  auto plan = LAgg(LScan(li->table_id(), {qty}), {},
                   {AggSpec{AggKind::kSum, Col(0, DataType::kInt64)},
                    AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> ref_rows;
  ASSERT_TRUE(Reference(plan, &ref_rows).ok());
  const std::string victim = cluster_->ro(1)->name();
  fault::Policy p;
  p.kind = fault::Kind::kFail;
  p.scope = victim;  // only ro1's fragment executions fail
  fault::ScopedFault fault("fragment.execute", p);
  auto* coord = cluster_->coordinator();
  const uint64_t retries_before = coord->retries();
  DistQueryStats stats;
  std::vector<Row> out;
  bool attempted = false;
  ASSERT_TRUE(coord->Execute(plan, 0, &out, &attempted, &stats).ok());
  ASSERT_TRUE(attempted) << "failover should rescue the query, not abandon";
  EXPECT_EQ(Canonicalize(out), Canonicalize(ref_rows));
  EXPECT_GT(coord->retries(), retries_before);
  for (const auto& t : stats.timings) {
    EXPECT_NE(t.node, victim);  // every fragment completed elsewhere
  }
}

// Live eviction during a stream of distributed queries: a participant is
// torn out of the fleet (sessions drained, node destroyed) while queries
// are in flight. Zero client-visible errors, every answer correct.
TEST_F(DistExecTest, EvictionMidQueryStreamIsInvisible) {
  auto cluster = MakeDistCluster(3);
  ASSERT_NE(cluster, nullptr);
  for (RoNode* ro : cluster->ro_nodes()) {
    ASSERT_TRUE(ro->CatchUpNow().ok());
    ro->RefreshStats();
  }
  auto li = cluster->catalog()->GetByName("lineitem");
  const int qty = tpch::ColOf(*li, "l_quantity");
  auto plan = LAgg(LScan(li->table_id(), {qty}), {0},
                   {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> ref_rows;
  ASSERT_TRUE(cluster->ro(0)->ExecuteColumn(plan, &ref_rows, 1).ok());
  const auto reference = Canonicalize(ref_rows);
  std::atomic<int> errors{0};
  std::atomic<int> mismatches{0};
  std::atomic<bool> stop{false};
  std::thread runner([&] {
    while (!stop.load()) {
      std::vector<Row> out;
      Status s = cluster->proxy()->ExecuteQuery(plan, &out);
      if (!s.ok()) {
        errors.fetch_add(1);
      } else if (Canonicalize(out) != reference) {
        mismatches.fetch_add(1);
      }
    }
  });
  // Let the stream get going, then evict a (likely participating) node.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  RoNode* victim = cluster->ro(2);
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(cluster->RemoveRoNode(victim).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  runner.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// --- Common-snapshot consistency ----------------------------------------

constexpr TableId kSnap = 9100;
constexpr int kSnapRows = 6000;

std::shared_ptr<const Schema> SnapSchema() {
  std::vector<ColumnDef> cols{{"id", DataType::kInt64, false, true},
                              {"val", DataType::kInt64, false, true}};
  return std::make_shared<Schema>(kSnap, "snap", cols, 0);
}

// A writer bumps every row to generation n in one transaction, over and
// over; distributed group-by-generation counts must always see exactly one
// generation covering the full table — a fragment reading generation n
// while another reads n+1 would split the group. This is the common-
// snapshot protocol's whole job.
TEST_F(DistExecTest, ConcurrentCommitsAllOrNothingAcrossFragments) {
  ClusterOptions opts;
  opts.initial_ro_nodes = 3;
  opts.ro.imci.row_group_size = 256;
  opts.ro.row_cost_threshold = 0.0;  // 6000-row scans: column engine
  opts.coordinator.rows_per_fragment = 500.0;
  auto cluster = std::make_unique<Cluster>(opts);
  ASSERT_TRUE(cluster->CreateTable(SnapSchema()).ok());
  std::vector<Row> rows;
  rows.reserve(kSnapRows);
  for (int64_t id = 0; id < kSnapRows; ++id) rows.push_back(Row{id, 0});
  ASSERT_TRUE(cluster->BulkLoad(kSnap, std::move(rows)).ok());
  ASSERT_TRUE(cluster->Open().ok());
  for (RoNode* ro : cluster->ro_nodes()) {
    ASSERT_TRUE(ro->CatchUpNow().ok());
    ro->RefreshStats();
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto* txns = cluster->rw()->txn_manager();
    int64_t generation = 1;
    while (!stop.load()) {
      Transaction txn;
      txns->Begin(&txn);
      bool ok = true;
      for (int64_t id = 0; id < kSnapRows && ok; ++id) {
        ok = txns->Update(&txn, kSnap, id, Row{id, generation}).ok();
      }
      if (ok && txns->Commit(&txn).ok()) {
        ++generation;
      } else {
        (void)txns->Rollback(&txn);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  auto plan = LAgg(LScan(kSnap, {1}), {0},
                   {AggSpec{AggKind::kCountStar, nullptr}});
  auto* coord = cluster->coordinator();
  int distributed = 0;
  const int iters = testing_util::TestIters(30);
  for (int i = 0; i < iters; ++i) {
    std::vector<Row> out;
    DistQueryStats stats;
    bool attempted = false;
    ASSERT_TRUE(coord->Execute(plan, 0, &out, &attempted, &stats).ok());
    if (!attempted) continue;  // fleet busy; the point needs attempted runs
    ++distributed;
    ASSERT_GE(stats.fragments, 2);
    // Exactly one generation, covering every row.
    ASSERT_EQ(out.size(), 1u) << "torn snapshot: saw "
                              << out.size() << " generations";
    EXPECT_EQ(std::get<int64_t>(out[0][1]), kSnapRows);
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(distributed, iters / 2);
}

// The coordinator picks the common snapshot before its requests arrive;
// meanwhile a participant may apply further commits and run maintenance,
// which reclaims row groups no view at its own applied point reads. A
// request below that point must answer Busy (the coordinator retries it on
// a peer) instead of scanning a snapshot whose rows are gone.
TEST(FragmentSnapshotTest, SnapshotBelowReleasedStateIsBusyNotShort) {
  ClusterOptions opts;
  opts.initial_ro_nodes = 1;
  opts.ro.imci.row_group_size = 4;
  opts.ro.replication.maintenance_interval = 1;
  auto cluster = std::make_unique<Cluster>(opts);
  ASSERT_TRUE(cluster->CreateTable(SnapSchema()).ok());
  std::vector<Row> rows;
  for (int64_t id = 0; id < 8; ++id) rows.push_back(Row{id, 0});
  ASSERT_TRUE(cluster->BulkLoad(kSnap, std::move(rows)).ok());
  ASSERT_TRUE(cluster->Open().ok());
  RoNode* ro = cluster->ro(0);
  ASSERT_TRUE(ro->CatchUpNow().ok());
  ro->StopReplication();  // catch-ups below poll, and maintain, in this thread
  const Vid before = ro->applied_vid();
  // Rewrite every row: each old group is empty at the new commit point,
  // so the next maintenance pass compacts and reclaims it.
  auto* txns = cluster->rw()->txn_manager();
  Transaction txn;
  txns->Begin(&txn);
  for (int64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(txns->Update(&txn, kSnap, id, Row{id, 1}).ok());
  }
  ASSERT_TRUE(txns->Commit(&txn).ok());
  ASSERT_TRUE(ro->CatchUpNow().ok());
  ASSERT_GT(ro->applied_vid(), before);

  FragmentService service(ro);
  auto run_at = [&](Vid read_vid, FragmentResponse* rsp) {
    FragmentRequest req;
    req.read_vid = read_vid;
    req.plan = LAgg(LScan(kSnap, {0}), {},
                    {AggSpec{AggKind::kCountStar, nullptr}});
    std::string request;
    EncodeFragmentRequest(req, &request);
    ASSERT_TRUE(DecodeFragmentResponse(service.Handle(request),
                                       {DataType::kInt64}, rsp)
                    .ok());
  };
  FragmentResponse stale;
  run_at(before, &stale);
  EXPECT_TRUE(stale.status.IsBusy()) << stale.status.ToString();
  FragmentResponse fresh;
  run_at(ro->applied_vid(), &fresh);
  ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
  ASSERT_EQ(fresh.rows.TotalRows(), 1u);
  EXPECT_EQ(fresh.rows.batches[0].cols[0].ints[0], 8);
}

// Straggler shedding: one participant's replication reads are slowed to a
// crawl so it cannot cover the common snapshot inside the catch-up budget.
// It must answer Busy, get shed, and the query completes correctly on the
// survivors — with the straggler counter proving the shrink happened.
TEST_F(DistExecTest, StragglerParticipantIsShedNotWaitedFor) {
  ClusterOptions opts;
  opts.initial_ro_nodes = 3;
  opts.ro.imci.row_group_size = 256;
  opts.ro.row_cost_threshold = 0.0;  // 6000-row scans: column engine
  opts.coordinator.rows_per_fragment = 500.0;
  opts.coordinator.catchup_timeout_us = 20'000;  // shed fast
  auto cluster = std::make_unique<Cluster>(opts);
  ASSERT_TRUE(cluster->CreateTable(SnapSchema()).ok());
  std::vector<Row> rows;
  rows.reserve(kSnapRows);
  for (int64_t id = 0; id < kSnapRows; ++id) rows.push_back(Row{id, 0});
  ASSERT_TRUE(cluster->BulkLoad(kSnap, std::move(rows)).ok());
  ASSERT_TRUE(cluster->Open().ok());
  for (RoNode* ro : cluster->ro_nodes()) {
    ASSERT_TRUE(ro->CatchUpNow().ok());
    ro->RefreshStats();
  }
  // Slow ro3's replication reads only, then land a commit: ro1/ro2 apply it
  // quickly, ro3 lags behind the common snapshot at dispatch time.
  const std::string laggard = cluster->ro(2)->name();
  fault::Policy p;
  p.kind = fault::Kind::kLatency;
  p.latency_us = 200'000;
  p.scope = laggard;
  fault::ScopedFault fault("logstore.read", p);
  {
    auto* txns = cluster->rw()->txn_manager();
    Transaction txn;
    txns->Begin(&txn);
    for (int64_t id = 0; id < kSnapRows; ++id) {
      ASSERT_TRUE(txns->Update(&txn, kSnap, id, Row{id, 1}).ok());
    }
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  ASSERT_TRUE(cluster->ro(0)->CatchUpNow().ok());
  ASSERT_TRUE(cluster->ro(1)->CatchUpNow().ok());
  auto plan = LAgg(LScan(kSnap, {1}), {0},
                   {AggSpec{AggKind::kCountStar, nullptr}});
  auto* coord = cluster->coordinator();
  const uint64_t shed_before = coord->stragglers();
  // The laggard may or may not be recruited for any one query; issue a few
  // so at least one fragment lands on it while it is behind.
  bool saw_shed = false;
  for (int i = 0; i < 10 && !saw_shed; ++i) {
    std::vector<Row> out;
    bool attempted = false;
    ASSERT_TRUE(coord->Execute(plan, 0, &out, &attempted).ok());
    if (attempted) {
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(std::get<int64_t>(out[0][0]), 1);  // post-commit generation
      EXPECT_EQ(std::get<int64_t>(out[0][1]), kSnapRows);
    }
    saw_shed = coord->stragglers() > shed_before;
  }
  EXPECT_TRUE(saw_shed) << "laggard was never recruited and shed";
}

// --- Malformed fragment responses ---------------------------------------

/// Wraps an in-process channel and rewrites every row of each response it
/// returns, writing the rewritten rows back with their value tags as they
/// are: the coordinator must decode them against the fragment's types.
class RewritingChannel : public FragmentChannel {
 public:
  RewritingChannel(RoNode* node, std::vector<DataType> types,
                   std::function<void(Row*)> rewrite)
      : inner_(node), types_(std::move(types)), rewrite_(std::move(rewrite)) {}

  const std::string& peer() const override { return inner_.peer(); }
  Status Submit(const std::string& request, std::string* response) override {
    std::string honest;
    IMCI_RETURN_NOT_OK(inner_.Submit(request, &honest));
    FragmentResponse rsp;
    IMCI_RETURN_NOT_OK(DecodeFragmentResponse(honest, types_, &rsp));
    std::vector<Row> rows = ToRows(rsp.rows);
    rsp.rows = RowSet{};
    // The rows are the response's last field: drop the empty set's count
    // and append the rewritten rows.
    EncodeFragmentResponse(rsp, response);
    response->resize(response->size() - 4);
    PutFixed32(response, static_cast<uint32_t>(rows.size()));
    for (Row& row : rows) {
      rewrite_(&row);
      PutFixed32(response, static_cast<uint32_t>(row.size()));
      for (const Value& v : row) PutValue(response, v);
    }
    return Status::OK();
  }
  Vid applied_vid() const override { return inner_.applied_vid(); }
  bool healthy() const override { return inner_.healthy(); }
  const StatsCollector* stats() const override { return inner_.stats(); }
  double row_cost_threshold() const override {
    return inner_.row_cost_threshold();
  }

 private:
  InProcessFragmentChannel inner_;
  std::vector<DataType> types_;
  std::function<void(Row*)> rewrite_;
};

// A participant whose rows do not match the fragment's output types fails
// its attempt like a transport error: every fragment runs out of peers,
// the coordinator falls back, and the proxy answers from one node. Left
// unchecked, an extra column overflows the coordinator's heap, a string in
// an INT64 column throws std::bad_variant_access out of the coordinator,
// and a missing column reads a null lane.
class MalformedResponseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ClusterOptions opts;
    opts.initial_ro_nodes = 3;
    opts.ro.imci.row_group_size = 256;
    opts.ro.row_cost_threshold = 0.0;
    opts.coordinator.rows_per_fragment = 500.0;
    cluster_ = new Cluster(opts);
    ASSERT_TRUE(cluster_->CreateTable(SnapSchema()).ok());
    std::vector<Row> rows;
    for (int64_t id = 0; id < kSnapRows; ++id) rows.push_back(Row{id, id % 7});
    ASSERT_TRUE(cluster_->BulkLoad(kSnap, std::move(rows)).ok());
    ASSERT_TRUE(cluster_->Open().ok());
    for (RoNode* ro : cluster_->ro_nodes()) {
      ASSERT_TRUE(ro->CatchUpNow().ok());
      ro->RefreshStats();
    }
  }
  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
  }

  /// Runs the query through a coordinator whose channels apply `rewrite`,
  /// directly and then through the proxy.
  static void ExpectFallback(const std::function<void(Row*)>& rewrite) {
    // Fragments: (val, COUNT(*)) partials, both INT64.
    const LogicalRef plan =
        LAgg(LScan(kSnap, {1}), {0}, {AggSpec{AggKind::kCountStar, nullptr}});
    const std::vector<DataType> types = {DataType::kInt64, DataType::kInt64};
    CoordinatorOptions copts;
    copts.rows_per_fragment = 500.0;
    QueryCoordinator hostile(cluster_->catalog(), copts, [&] {
      std::vector<std::unique_ptr<FragmentChannel>> chans;
      for (RoNode* ro : cluster_->ro_nodes()) {
        chans.push_back(std::make_unique<RewritingChannel>(ro, types, rewrite));
      }
      return chans;
    });
    std::vector<Row> reference;
    ASSERT_TRUE(cluster_->ro(0)->ExecuteColumn(plan, &reference, 1).ok());
    ASSERT_EQ(reference.size(), 7u);

    std::vector<Row> out;
    bool attempted = true;
    ASSERT_TRUE(hostile.Execute(plan, 0, &out, &attempted).ok());
    EXPECT_FALSE(attempted);
    EXPECT_EQ(hostile.queries_attempted(), 1u);
    EXPECT_EQ(hostile.fallbacks(), 1u);

    Proxy* proxy = cluster_->proxy();
    proxy->set_coordinator(&hostile);
    std::vector<Row> served;
    const Status s = proxy->ExecuteQuery(plan, &served);
    proxy->set_coordinator(cluster_->coordinator());
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(hostile.fallbacks(), 2u);
    EXPECT_EQ(Canonicalize(served), Canonicalize(reference));
  }

  static Cluster* cluster_;
};
Cluster* MalformedResponseTest::cluster_ = nullptr;

TEST_F(MalformedResponseTest, ExtraColumnIsAFailedAttempt) {
  ExpectFallback([](Row* row) { row->push_back(int64_t{0}); });
}

TEST_F(MalformedResponseTest, StringInAnIntColumnIsAFailedAttempt) {
  ExpectFallback([](Row* row) { (*row)[0] = std::string("x"); });
}

TEST_F(MalformedResponseTest, MissingColumnIsAFailedAttempt) {
  ExpectFallback([](Row* row) { row->pop_back(); });
}

// --- NULL partition keys ------------------------------------------------

constexpr TableId kNullParent = 9200;
constexpr TableId kNullChild = 9201;

// A nullable integer foreign key co-partitions a LEFT join, an ANTI join and
// a GROUP BY with its parent table. NULL keys belong to the first (open-low)
// range: the old "belongs to no range" rule dropped NULL-keyed rows, and a
// first fragment that skipped a row group by its key range alone would drop
// the NULLs stored there. The child's keys are clustered by row group, so
// most groups lie wholly above the first range and still hold NULLs.
TEST(DistNullKeyTest, NullKeysLandInTheFirstRange) {
  const uint64_t seed = testing_util::TestSeed(19);
  SCOPED_TRACE(::testing::Message()
               << "IMCI_TEST_SEED=" << seed << " reproduces this run");
  std::printf("DistNullKeyTest seed %llu\n",
              static_cast<unsigned long long>(seed));
  Rng rng(seed);

  ClusterOptions opts;
  opts.initial_ro_nodes = 2;
  opts.ro.imci.row_group_size = 64;
  opts.ro.row_cost_threshold = 0.0;  // small scans: column engine
  opts.coordinator.rows_per_fragment = 100.0;
  auto cluster = std::make_unique<Cluster>(opts);
  ASSERT_TRUE(cluster
                  ->CreateTable(std::make_shared<Schema>(
                      kNullParent, "null_parent",
                      std::vector<ColumnDef>{{"id", DataType::kInt64},
                                             {"w", DataType::kInt64}},
                      0))
                  .ok());
  ASSERT_TRUE(cluster
                  ->CreateTable(std::make_shared<Schema>(
                      kNullChild, "null_child",
                      std::vector<ColumnDef>{{"id", DataType::kInt64},
                                             {"fk", DataType::kInt64, true},
                                             {"val", DataType::kInt64}},
                      0))
                  .ok());
  // Parents cover 2/3 of the key space, so the anti join has output.
  std::vector<Row> parents, children;
  for (int64_t id = 0; id < 500; ++id) {
    if (id % 3 != 0) parents.push_back(Row{id, rng.Uniform(0, 99)});
  }
  for (int64_t id = 0; id < 3000; ++id) {
    Value fk = rng.Uniform(0, 4) == 0 ? Value{} : Value{id / 6};
    children.push_back(Row{id, fk, rng.Uniform(0, 999)});
  }
  ASSERT_TRUE(cluster->BulkLoad(kNullParent, std::move(parents)).ok());
  ASSERT_TRUE(cluster->BulkLoad(kNullChild, std::move(children)).ok());
  ASSERT_TRUE(cluster->Open().ok());
  for (RoNode* ro : cluster->ro_nodes()) {
    ASSERT_TRUE(ro->CatchUpNow().ok());
    ro->RefreshStats();
  }

  auto child = [] { return LScan(kNullChild, {0, 1, 2}); };
  auto parent = [] { return LScan(kNullParent, {0, 1}); };
  auto per_fk = LAgg(LScan(kNullChild, {1, 2}), {0},
                     {AggSpec{AggKind::kCountStar, nullptr},
                      AggSpec{AggKind::kMax, Col(1, DataType::kInt64)}});
  const std::vector<std::pair<const char*, LogicalRef>> plans = {
      {"left join", LJoin(child(), parent(), {1}, {0}, JoinType::kLeft)},
      {"anti join", LJoin(child(), parent(), {1}, {0}, JoinType::kAnti)},
      {"group by", LJoin(per_fk, parent(), {0}, {0}, JoinType::kLeft)},
  };
  for (const auto& [name, plan] : plans) {
    SCOPED_TRACE(name);
    // The cut must split the child on fk, or NULL keys are never at stake.
    FragmentSet fs;
    ASSERT_TRUE(CutFragments(plan, *cluster->catalog(),
                             *cluster->ro(0)->stats(), 2, &fs)
                    .ok());
    std::multiset<std::string> parts;
    ScanPartitions(*cluster->catalog(), fs.fragments[0], &parts);
    EXPECT_EQ(parts, (std::multiset<std::string>{"null_child.fk",
                                                 "null_parent.id"}));

    std::vector<Row> ref_rows, dist_rows;
    ASSERT_TRUE(cluster->ro(0)->ExecuteColumn(plan, &ref_rows, 1).ok());
    DistQueryStats stats;
    bool attempted = false;
    ASSERT_TRUE(cluster->coordinator()
                    ->Execute(plan, 0, &dist_rows, &attempted, &stats)
                    .ok());
    ASSERT_TRUE(attempted);
    EXPECT_GE(stats.fragments, 2);
    EXPECT_EQ(Canonicalize(dist_rows), Canonicalize(ref_rows));
  }
}

// --- Proxy routing ------------------------------------------------------

constexpr TableId kLookup = 9300;
constexpr int kLookupRows = 30000;

// Distributed-first must not take lookups from the row engine. A PK point
// query and an equality on an unordered column each touch a handful of rows
// through the B+tree, so the proxy serves them from an RO's row engine,
// although the fan-out budget is tiny and the unordered column's scan would
// read the whole table on the column engine. A full aggregate over the same
// table still distributes.
TEST(DistRoutingTest, LookupsThroughTheProxyStayOnTheRowEngine) {
  ClusterOptions opts;
  opts.initial_ro_nodes = 2;
  opts.ro.imci.row_group_size = 512;
  opts.coordinator.rows_per_fragment = 500.0;  // any scan would fan out
  auto cluster = std::make_unique<Cluster>(opts);
  ASSERT_TRUE(cluster
                  ->CreateTable(std::make_shared<Schema>(
                      kLookup, "lookup",
                      std::vector<ColumnDef>{{"id", DataType::kInt64},
                                             {"k", DataType::kInt64},
                                             {"v", DataType::kInt64}},
                      0))
                  .ok());
  Rng rng(23);
  std::vector<Row> rows;
  rows.reserve(kLookupRows);
  for (int64_t id = 0; id < kLookupRows; ++id) {
    rows.push_back(Row{id, rng.Uniform(0, 999), rng.Uniform(0, 99999)});
  }
  ASSERT_TRUE(cluster->BulkLoad(kLookup, std::move(rows)).ok());
  ASSERT_TRUE(cluster->Open().ok());
  for (RoNode* ro : cluster->ro_nodes()) {
    ASSERT_TRUE(ro->CatchUpNow().ok());
    ro->RefreshStats();
  }

  struct Case {
    const char* name;
    LogicalRef plan;
    EngineChoice engine;
  };
  const std::vector<Case> cases = {
      {"pk point",
       LScan(kLookup, {0, 2}, Eq(Col(0, DataType::kInt64), ConstInt(12345))),
       EngineChoice::kRowEngine},
      {"unordered equality",
       LScan(kLookup, {1, 2}, Eq(Col(0, DataType::kInt64), ConstInt(7))),
       EngineChoice::kRowEngine},
      {"full aggregate",
       LAgg(LScan(kLookup, {1}), {}, {AggSpec{AggKind::kCountStar, nullptr}}),
       EngineChoice::kColumnEngine},
  };
  QueryCoordinator* coord = cluster->coordinator();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const uint64_t attempted_before = coord->queries_attempted();
    std::vector<Row> ref_rows, out;
    ASSERT_TRUE(cluster->ro(0)->ExecuteColumn(c.plan, &ref_rows, 1).ok());
    EngineChoice chosen = EngineChoice::kRowEngine;
    ASSERT_TRUE(cluster->proxy()->ExecuteQuery(c.plan, &out,
                                               Consistency::kEventual, &chosen)
                    .ok());
    EXPECT_EQ(chosen, c.engine);
    const bool distributed = c.engine == EngineChoice::kColumnEngine;
    EXPECT_EQ(coord->queries_attempted() - attempted_before,
              distributed ? 1u : 0u);
    EXPECT_EQ(Canonicalize(out), Canonicalize(ref_rows));
  }
}

// A column outside the column index (§3.3) has no pack: a column plan over
// it cannot be lowered, so the RO answers from its row engine and the
// coordinator leaves the query on one node. A scan ordinal past the schema
// is refused outright.
constexpr TableId kSparse = 9400;

std::shared_ptr<const Schema> SparseSchema() {
  std::vector<ColumnDef> cols{{"id", DataType::kInt64, false, true},
                              {"k", DataType::kInt64, false, true},
                              {"note", DataType::kInt64, false, false}};
  return std::make_shared<Schema>(kSparse, "sparse", cols, 0);
}

std::unique_ptr<Cluster> MakeSparseCluster() {
  ClusterOptions opts;
  opts.initial_ro_nodes = 2;
  opts.ro.imci.row_group_size = 256;
  opts.ro.row_cost_threshold = 0.0;            // column engine first
  opts.coordinator.rows_per_fragment = 100.0;  // any scan would fan out
  auto cluster = std::make_unique<Cluster>(opts);
  if (!cluster->CreateTable(SparseSchema()).ok()) return nullptr;
  std::vector<Row> rows;
  for (int64_t id = 0; id < 2000; ++id) {
    rows.push_back(Row{id, id % 7, id * 3});
  }
  if (!cluster->BulkLoad(kSparse, std::move(rows)).ok()) return nullptr;
  if (!cluster->Open().ok()) return nullptr;
  for (RoNode* ro : cluster->ro_nodes()) {
    if (!ro->CatchUpNow().ok()) return nullptr;
    ro->RefreshStats();
  }
  return cluster;
}

TEST(NonIndexedColumnTest, ColumnPlanFallsBackToTheRowEngine) {
  auto cluster = MakeSparseCluster();
  ASSERT_NE(cluster, nullptr);
  RoNode* ro = cluster->ro(0);
  const LogicalRef plan =
      LAgg(LScan(kSparse, {1, 2}), {0},
           {AggSpec{AggKind::kSum, Col(1, DataType::kInt64)},
            AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> ref;
  ASSERT_TRUE(ro->ExecuteRow(plan, &ref).ok());
  ASSERT_EQ(ref.size(), 7u);

  std::vector<Row> out;
  EXPECT_EQ(ro->ExecuteColumn(plan, &out).code(), Code::kNotSupported);
  EngineChoice chosen = EngineChoice::kRowEngine;
  ASSERT_TRUE(ro->Execute(plan, &out, &chosen).ok());
  EXPECT_EQ(chosen, EngineChoice::kColumnEngine);  // routed, then fell back
  EXPECT_EQ(Canonicalize(out), Canonicalize(ref));

  QueryCoordinator* coord = cluster->coordinator();
  const uint64_t attempted = coord->queries_attempted();
  out.clear();
  ASSERT_TRUE(cluster->proxy()->ExecuteQuery(plan, &out).ok());
  EXPECT_EQ(coord->queries_attempted(), attempted);
  EXPECT_EQ(Canonicalize(out), Canonicalize(ref));

  // Neither does a projection above the scan hide the column from the
  // coordinator, between the cut's aggregate and the scan or at the root.
  const LogicalRef projected =
      LAgg(LProject(LScan(kSparse, {1, 2}), {Col(0, DataType::kInt64),
                                             Col(1, DataType::kInt64)}),
           {0}, {AggSpec{AggKind::kSum, Col(1, DataType::kInt64)},
                 AggSpec{AggKind::kCountStar, nullptr}});
  out.clear();
  ASSERT_TRUE(cluster->proxy()->ExecuteQuery(projected, &out).ok());
  EXPECT_EQ(coord->queries_attempted(), attempted);
  EXPECT_EQ(Canonicalize(out), Canonicalize(ref));
  const LogicalRef project_root =
      LProject(LScan(kSparse, {0, 2}), {Col(1, DataType::kInt64)});
  ASSERT_TRUE(ro->ExecuteRow(project_root, &ref).ok());
  ASSERT_EQ(ref.size(), 2000u);
  out.clear();
  ASSERT_TRUE(cluster->proxy()->ExecuteQuery(project_root, &out).ok());
  EXPECT_EQ(coord->queries_attempted(), attempted);
  EXPECT_EQ(Canonicalize(out), Canonicalize(ref));

  // Indexed columns alone still distribute.
  out.clear();
  ASSERT_TRUE(cluster->proxy()
                  ->ExecuteQuery(LAgg(LScan(kSparse, {1}), {0},
                                      {AggSpec{AggKind::kCountStar, nullptr}}),
                                 &out)
                  .ok());
  EXPECT_EQ(coord->queries_attempted(), attempted + 1);

  EXPECT_EQ(ro->ExecuteColumn(LScan(kSparse, {0, 3}), &out).code(),
            Code::kInvalidArgument);
  EXPECT_EQ(ro->ExecuteRow(LScan(kSparse, {0, 3}), &out).code(),
            Code::kInvalidArgument);
}

// A fragment plan arrives as bytes: GetPlan checks that they decode, and
// the service checks the decoded shape before lowering it. Each malformed
// shape below would read out of bounds in the lowering or an operator.
struct MalformedPlan {
  const char* name;
  std::function<LogicalRef()> make;
};

void PrintTo(const MalformedPlan& p, std::ostream* os) { *os << p.name; }

LogicalRef SnapScan() { return LScan(kSnap, {0, 1}); }

const MalformedPlan kMalformedPlans[] = {
    {"JoinWithOneChild",
     [] {
       LogicalRef j = LJoin(SnapScan(), SnapScan(), {0}, {0});
       j->children.pop_back();
       return j;
     }},
    {"JoinWithOneChildUnderProject",
     [] {
       LogicalRef j = LJoin(SnapScan(), SnapScan(), {0}, {0});
       j->children.pop_back();
       return LProject(j, {Col(0, DataType::kInt64)});
     }},
    {"SortKeyPastWidthUnderProject",
     [] {
       return LProject(LSort(SnapScan(), {SortKey{5}}),
                       {Col(0, DataType::kInt64)});
     }},
    {"JoinKeyCountsDiffer",
     [] { return LJoin(SnapScan(), SnapScan(), {0, 1}, {0}); }},
    {"ProbeKeyPastWidth", [] { return LJoin(SnapScan(), SnapScan(), {7}, {0}); }},
    {"BuildKeyPastWidth", [] { return LJoin(SnapScan(), SnapScan(), {0}, {7}); }},
    {"FilterWithoutPredicate",
     [] {
       LogicalRef f = LFilter(SnapScan(), Eq(Col(0, DataType::kInt64),
                                             ConstInt(1)));
       f->exprs.clear();
       return f;
     }},
    {"SortKeyPastWidth", [] { return LSort(SnapScan(), {SortKey{5}}); }},
    {"GroupColumnPastWidth",
     [] {
       return LAgg(SnapScan(), {4}, {AggSpec{AggKind::kCountStar, nullptr}});
     }},
    {"AggregateWithoutArgument",
     [] { return LAgg(SnapScan(), {0}, {AggSpec{AggKind::kMax, nullptr}}); }},
    {"ScanColumnPastSchema", [] { return LScan(kSnap, {0, 9}); }},
    {"ScanColumnOutsideIndex", [] { return LScan(kSparse, {0, 2}); }},
    {"PartitionColumnPastSchema",
     [] {
       LogicalRef s = SnapScan();
       s->part_col = 9;
       s->part_has_hi = true;
       return s;
     }},
    // A Values leaf is local to the coordinator: on the wire it is
    // Corruption, whatever it holds.
    {"ValuesNodeOnTheWire", [] { return LValues({DataType::kInt64}); }},
};

class MalformedFragmentPlanTest
    : public ::testing::TestWithParam<MalformedPlan> {
 protected:
  static void SetUpTestSuite() {
    ClusterOptions opts;
    opts.initial_ro_nodes = 1;
    cluster_ = new Cluster(opts);
    ASSERT_TRUE(cluster_->CreateTable(SnapSchema()).ok());
    ASSERT_TRUE(cluster_->CreateTable(SparseSchema()).ok());
    std::vector<Row> rows;
    std::vector<Row> sparse;
    for (int64_t id = 0; id < 64; ++id) {
      rows.push_back(Row{id, id % 5});
      sparse.push_back(Row{id, id % 5, id});
    }
    ASSERT_TRUE(cluster_->BulkLoad(kSnap, std::move(rows)).ok());
    ASSERT_TRUE(cluster_->BulkLoad(kSparse, std::move(sparse)).ok());
    ASSERT_TRUE(cluster_->Open().ok());
    ASSERT_TRUE(cluster_->ro(0)->CatchUpNow().ok());
  }
  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
  }
  static Cluster* cluster_;
};
Cluster* MalformedFragmentPlanTest::cluster_ = nullptr;

TEST_P(MalformedFragmentPlanTest, IsRefusedBeforeLowering) {
  RoNode* ro = cluster_->ro(0);
  FragmentService service(ro);
  FragmentRequest req;
  req.read_vid = ro->applied_vid();
  req.plan = GetParam().make();
  std::string request;
  EncodeFragmentRequest(req, &request);
  FragmentResponse rsp;
  ASSERT_TRUE(DecodeFragmentResponse(service.Handle(request), {}, &rsp).ok());
  EXPECT_TRUE(rsp.status.IsCorruption()) << rsp.status.ToString();
  EXPECT_TRUE(rsp.rows.batches.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MalformedFragmentPlanTest, ::testing::ValuesIn(kMalformedPlans),
    [](const ::testing::TestParamInfo<MalformedPlan>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace imci
