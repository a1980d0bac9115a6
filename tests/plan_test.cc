#include <gtest/gtest.h>

#include <limits>

#include "plan/optimizer.h"
#include "tests/test_util.h"

namespace imci {
namespace {

// Range arithmetic over the int64 extremes: the differences between the
// stats' min/max and a bound overflow int64, so they are taken in double.
TEST(SelectivityTest, ExtremeIntRangesDoNotOverflow) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  TableStats ts;
  ts.row_count = 1000;
  ts.cols.resize(1);
  ts.cols[0].has_range = true;
  ts.cols[0].ndv = 1000;
  ts.cols[0].min = kMin;
  ts.cols[0].max = kMax;
  const auto col = Col(0, DataType::kInt64);
  EXPECT_NEAR(EstimateSelectivity(Ge(col, ConstInt(0)), &ts, {0}), 0.5,
              0.01);
  EXPECT_NEAR(EstimateSelectivity(Lt(col, ConstInt(kMax)), &ts, {0}), 1.0,
              0.01);
  ts.cols[0].min = -100;
  ts.cols[0].max = 100;
  EXPECT_DOUBLE_EQ(EstimateSelectivity(Ge(col, ConstInt(kMax)), &ts, {0}),
                   1e-6);
  ts.cols[0].min = 100;
  ts.cols[0].max = 300;
  EXPECT_DOUBLE_EQ(EstimateSelectivity(Le(col, ConstInt(kMin)), &ts, {0}),
                   1e-6);
}

class PlanOnTpch : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = testing_util::MakeTpchCluster(0.01).release();
    ASSERT_NE(cluster_, nullptr);
    ro_ = cluster_->ro(0);
    ASSERT_TRUE(ro_->CatchUpNow().ok());
    ro_->RefreshStats();
  }
  static void TearDownTestSuite() { delete cluster_; }
  static Cluster* cluster_;
  static RoNode* ro_;
};
Cluster* PlanOnTpch::cluster_ = nullptr;
RoNode* PlanOnTpch::ro_ = nullptr;

TEST_F(PlanOnTpch, StatsReflectTableSizes) {
  const TableStats* li = ro_->stats()->Get(tpch::kLineitem);
  const TableStats* na = ro_->stats()->Get(tpch::kNation);
  ASSERT_NE(li, nullptr);
  ASSERT_NE(na, nullptr);
  EXPECT_GT(li->row_count, na->row_count * 10);
  EXPECT_EQ(na->row_count, 25u);
}

TEST_F(PlanOnTpch, SelectivityEstimates) {
  auto li_schema = cluster_->catalog()->GetByName("lineitem");
  const TableStats* ts = ro_->stats()->Get(li_schema->table_id());
  const int shipdate = li_schema->ColumnIndex("l_shipdate");
  // Narrow one-year window over a ~6.5-year range: selectivity ~0.15.
  auto filter = And(Ge(Col(0, DataType::kDate), ConstDate(1994, 1, 1)),
                    Lt(Col(0, DataType::kDate), ConstDate(1995, 1, 1)));
  double sel = EstimateSelectivity(filter, ts, {shipdate});
  EXPECT_GT(sel, 0.05);
  EXPECT_LT(sel, 0.35);
  // Equality on a high-NDV key is tiny.
  auto eq = Eq(Col(0, DataType::kInt64), ConstInt(5));
  const int okey = li_schema->ColumnIndex("l_orderkey");
  double eq_sel = EstimateSelectivity(eq, ts, {okey});
  EXPECT_LT(eq_sel, 0.05);
}

TEST_F(PlanOnTpch, LoweringProducesSameResultsOnBothEngines) {
  // A representative join+agg plan, lowered twice.
  auto orders = cluster_->catalog()->GetByName("orders");
  auto cust = cluster_->catalog()->GetByName("customer");
  auto plan = LAgg(
      LJoin(LScan(orders->table_id(),
                  {orders->ColumnIndex("o_custkey"),
                   orders->ColumnIndex("o_totalprice")}),
            LScan(cust->table_id(), {cust->ColumnIndex("c_custkey"),
                                     cust->ColumnIndex("c_nationkey")}),
            {0}, {0}),
      {3}, {AggSpec{AggKind::kSum, Col(1, DataType::kDouble)},
            AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> col_rows, row_rows;
  ASSERT_TRUE(ro_->ExecuteColumn(plan, &col_rows).ok());
  ASSERT_TRUE(ro_->ExecuteRow(plan, &row_rows).ok());
  EXPECT_EQ(testing_util::Canonicalize(col_rows),
            testing_util::Canonicalize(row_rows));
  EXPECT_EQ(col_rows.size(), 25u);  // one group per nation
}

TEST_F(PlanOnTpch, IntraNodeRoutingByCost) {
  auto cust = cluster_->catalog()->GetByName("customer");
  // Point query -> row engine.
  auto point = LScan(cust->table_id(), {0, 5},
                     Eq(Col(0, DataType::kInt64), ConstInt(3)));
  EngineChoice chosen;
  std::vector<Row> out;
  ASSERT_TRUE(ro_->Execute(point, &out, &chosen).ok());
  EXPECT_EQ(chosen, EngineChoice::kRowEngine);
  ASSERT_EQ(out.size(), 1u);
  // Full lineitem scan -> column engine.
  auto li = cluster_->catalog()->GetByName("lineitem");
  auto scan = LAgg(LScan(li->table_id(), {li->ColumnIndex("l_quantity")}),
                   {}, {AggSpec{AggKind::kSum, Col(0, DataType::kDouble)}});
  ASSERT_TRUE(ro_->Execute(scan, &out, &chosen).ok());
  EXPECT_EQ(chosen, EngineChoice::kColumnEngine);
}

TEST_F(PlanOnTpch, RowEngineUsesSecondaryIndexPath) {
  auto su = cluster_->catalog()->GetByName("supplier");
  const int nk = su->ColumnIndex("s_nationkey");
  auto plan = LScan(su->table_id(), {nk, su->ColumnIndex("s_suppkey")},
                    Eq(Col(0, DataType::kInt64), ConstInt(7)));
  std::vector<Row> via_index, via_column;
  ASSERT_TRUE(ro_->ExecuteRow(plan, &via_index).ok());
  ASSERT_TRUE(ro_->ExecuteColumn(plan, &via_column).ok());
  EXPECT_EQ(testing_util::Canonicalize(via_index),
            testing_util::Canonicalize(via_column));
}

}  // namespace
}  // namespace imci
