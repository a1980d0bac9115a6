#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "exec/expr.h"
#include "exec/operators.h"

namespace imci {
namespace {

Batch MakeBatch(std::vector<std::vector<Value>> rows,
                std::vector<DataType> types) {
  Batch b = Batch::Make(types);
  for (auto& r : rows) {
    for (size_t c = 0; c < r.size(); ++c) b.cols[c].AppendValue(r[c]);
    b.rows++;
  }
  return b;
}

TEST(ExprTest, ComparisonKernels) {
  Batch b = MakeBatch({{int64_t(1), int64_t(5)},
                       {int64_t(5), int64_t(5)},
                       {int64_t(9), int64_t(5)}},
                      {DataType::kInt64, DataType::kInt64});
  ColumnVector out;
  ASSERT_TRUE(Lt(Col(0, DataType::kInt64), Col(1, DataType::kInt64))
                  ->Eval(b, &out).ok());
  EXPECT_EQ(out.ints, (std::vector<int64_t>{1, 0, 0}));
  ASSERT_TRUE(Ge(Col(0, DataType::kInt64), Col(1, DataType::kInt64))
                  ->Eval(b, &out).ok());
  EXPECT_EQ(out.ints, (std::vector<int64_t>{0, 1, 1}));
  ASSERT_TRUE(Eq(Col(0, DataType::kInt64), ConstInt(5))->Eval(b, &out).ok());
  EXPECT_EQ(out.ints, (std::vector<int64_t>{0, 1, 0}));
}

TEST(ExprTest, NullPropagationThreeValuedLogic) {
  Batch b = MakeBatch({{Value{}, int64_t(1)}, {int64_t(2), Value{}}},
                      {DataType::kInt64, DataType::kInt64});
  ColumnVector out;
  // NULL < 1 -> NULL; filter mask treats it as false.
  std::vector<uint8_t> mask;
  auto pred = Lt(Col(0, DataType::kInt64), Col(1, DataType::kInt64));
  ASSERT_TRUE(pred->EvalMask(b, &mask).ok());
  EXPECT_EQ(mask, (std::vector<uint8_t>{0, 0}));
  // (x IS NULL) OR (y IS NULL) is true for both.
  auto isnull = Or(IsNull(Col(0, DataType::kInt64)),
                   IsNull(Col(1, DataType::kInt64)));
  ASSERT_TRUE(isnull->EvalMask(b, &mask).ok());
  EXPECT_EQ(mask, (std::vector<uint8_t>{1, 1}));
  // AND short-circuit semantics: (false AND NULL) == false, not NULL.
  Batch b2 = MakeBatch({{int64_t(0), Value{}}},
                       {DataType::kInt64, DataType::kInt64});
  auto and_expr = And(Gt(Col(0, DataType::kInt64), ConstInt(5)),
                      Gt(Col(1, DataType::kInt64), ConstInt(0)));
  ColumnVector v;
  ASSERT_TRUE(and_expr->Eval(b2, &v).ok());
  EXPECT_EQ(v.nulls[0], 0);
  EXPECT_EQ(v.ints[0], 0);
}

TEST(ExprTest, ArithmeticTypePromotion) {
  Batch b = MakeBatch({{int64_t(3), 2.5}}, {DataType::kInt64,
                                            DataType::kDouble});
  ColumnVector out;
  ASSERT_TRUE(Add(Col(0, DataType::kInt64), Col(1, DataType::kDouble))
                  ->Eval(b, &out).ok());
  EXPECT_EQ(out.type, DataType::kDouble);
  EXPECT_DOUBLE_EQ(out.dbls[0], 5.5);
  // Pure integer arithmetic stays integral.
  ASSERT_TRUE(Mul(Col(0, DataType::kInt64), ConstInt(4))->Eval(b, &out).ok());
  EXPECT_EQ(out.type, DataType::kInt64);
  EXPECT_EQ(out.ints[0], 12);
  // Division by zero yields NULL, not a crash.
  ASSERT_TRUE(Div(Col(1, DataType::kDouble), ConstDouble(0.0))
                  ->Eval(b, &out).ok());
  EXPECT_EQ(out.nulls[0], 1);
}

TEST(ExprTest, LikeMatcher) {
  EXPECT_TRUE(Expr::LikeMatch("PROMO BRUSHED TIN", "PROMO%"));
  EXPECT_TRUE(Expr::LikeMatch("forest green", "%green%"));
  EXPECT_TRUE(Expr::LikeMatch("special packed requests", "%special%requests%"));
  EXPECT_FALSE(Expr::LikeMatch("nothing here", "%special%requests%"));
  EXPECT_TRUE(Expr::LikeMatch("abc", "a_c"));
  EXPECT_FALSE(Expr::LikeMatch("abbc", "a_c"));
  EXPECT_TRUE(Expr::LikeMatch("", "%"));
  EXPECT_FALSE(Expr::LikeMatch("", "_"));
  EXPECT_TRUE(Expr::LikeMatch("xyz", "%%z"));
}

TEST(ExprTest, CaseSubstrYearIn) {
  Batch b = MakeBatch({{std::string("13-555"), int64_t(MakeDate(1995, 6, 1))},
                       {std::string("99-000"), int64_t(MakeDate(1996, 1, 2))}},
                      {DataType::kString, DataType::kDate});
  ColumnVector out;
  ASSERT_TRUE(Substr(Col(0, DataType::kString), 1, 2)->Eval(b, &out).ok());
  EXPECT_EQ(out.strs[0], "13");
  ASSERT_TRUE(Year(Col(1, DataType::kDate))->Eval(b, &out).ok());
  EXPECT_EQ(out.ints[0], 1995);
  EXPECT_EQ(out.ints[1], 1996);
  auto in = In(Substr(Col(0, DataType::kString), 1, 2),
               {std::string("13"), std::string("31")});
  ASSERT_TRUE(in->Eval(b, &out).ok());
  EXPECT_EQ(out.ints[0], 1);
  EXPECT_EQ(out.ints[1], 0);
  auto c = Case(Eq(Year(Col(1, DataType::kDate)), ConstInt(1995)),
                ConstInt(10), ConstInt(20));
  ASSERT_TRUE(c->Eval(b, &out).ok());
  EXPECT_EQ(out.ints, (std::vector<int64_t>{10, 20}));
}

class OperatorTest : public ::testing::Test {
 protected:
  OperatorTest() : pool_(4) {
    ctx_.pool = &pool_;
    ctx_.parallelism = 4;
    ctx_.read_vid = kMaxVid;
  }
  PhysOpRef Values(std::vector<Row> rows, std::vector<DataType> types) {
    return std::make_shared<ValuesOp>(types, std::move(rows));
  }
  /// A child that emits one batch per element of `batches` (ValuesOp
  /// emits a single batch), so parallel workers split the input.
  PhysOpRef Batches(std::vector<std::vector<Row>> batches,
                    std::vector<DataType> types) {
    std::vector<PhysOpRef> parts;
    for (auto& rows : batches) parts.push_back(Values(std::move(rows), types));
    return std::make_shared<UnionOp>(std::move(types), std::move(parts));
  }
  /// Runs `plan` at dop 1 and dop 4 on the 4-thread pool; both must return
  /// the same rows in the same order. Returns the dop-1 rows.
  std::vector<Row> RunAtDop1And4(const PhysOpRef& plan) {
    std::vector<Row> serial, parallel;
    ctx_.parallelism = 1;
    EXPECT_TRUE(RunPlan(plan, &ctx_, &serial).ok());
    ctx_.parallelism = 4;
    EXPECT_TRUE(RunPlan(plan, &ctx_, &parallel).ok());
    EXPECT_EQ(serial, parallel);
    return serial;
  }

  /// Concatenates its children's batches, in child order.
  class UnionOp : public PhysOp {
   public:
    UnionOp(std::vector<DataType> types, std::vector<PhysOpRef> parts)
        : parts_(std::move(parts)) {
      out_types_ = std::move(types);
    }
    Status Execute(ExecContext* ctx, RowSet* out) override {
      out->types = out_types_;
      for (const PhysOpRef& p : parts_) {
        RowSet part;
        IMCI_RETURN_NOT_OK(p->Execute(ctx, &part));
        for (Batch& b : part.batches) out->batches.push_back(std::move(b));
      }
      return Status::OK();
    }

   private:
    std::vector<PhysOpRef> parts_;
  };

  ThreadPool pool_;
  ExecContext ctx_;
};

TEST_F(OperatorTest, FilterAndProject) {
  auto values = Values({{int64_t(1)}, {int64_t(2)}, {int64_t(3)},
                        {int64_t(4)}},
                       {DataType::kInt64});
  auto filter = std::make_shared<FilterOp>(
      values, Gt(Col(0, DataType::kInt64), ConstInt(2)));
  auto project = std::make_shared<ProjectOp>(
      filter, std::vector<ExprRef>{Mul(Col(0, DataType::kInt64),
                                       ConstInt(10))});
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(project, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(AsInt(out[0][0]), 30);
  EXPECT_EQ(AsInt(out[1][0]), 40);
}

TEST_F(OperatorTest, HashJoinVariants) {
  auto left = Values({{int64_t(1), std::string("a")},
                      {int64_t(2), std::string("b")},
                      {int64_t(3), std::string("c")}},
                     {DataType::kInt64, DataType::kString});
  auto right = Values({{int64_t(2), 20.0}, {int64_t(3), 30.0},
                       {int64_t(3), 33.0}},
                      {DataType::kInt64, DataType::kDouble});
  // Inner: 1 match for key 2, two for key 3.
  auto inner = std::make_shared<HashJoinOp>(right, left, std::vector<int>{0},
                                            std::vector<int>{0},
                                            JoinType::kInner);
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(inner, &ctx_, &out).ok());
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].size(), 4u);  // probe cols + build cols
  // Left outer keeps unmatched key 1 with nulls.
  auto leftj = std::make_shared<HashJoinOp>(right, left, std::vector<int>{0},
                                            std::vector<int>{0},
                                            JoinType::kLeft);
  ASSERT_TRUE(RunPlan(leftj, &ctx_, &out).ok());
  EXPECT_EQ(out.size(), 4u);
  int nulls = 0;
  for (auto& r : out) {
    if (IsNull(r[2])) nulls++;
  }
  EXPECT_EQ(nulls, 1);
  // Semi / anti.
  auto semi = std::make_shared<HashJoinOp>(right, left, std::vector<int>{0},
                                           std::vector<int>{0},
                                           JoinType::kSemi);
  ASSERT_TRUE(RunPlan(semi, &ctx_, &out).ok());
  EXPECT_EQ(out.size(), 2u);
  auto anti = std::make_shared<HashJoinOp>(right, left, std::vector<int>{0},
                                           std::vector<int>{0},
                                           JoinType::kAnti);
  ASSERT_TRUE(RunPlan(anti, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(AsInt(out[0][0]), 1);
}

// NULL keys never match: inner and semi joins drop them, a left join
// null-extends them, and an anti join keeps them.
TEST_F(OperatorTest, NullKeysNeverJoin) {
  auto build = Batches({{{Value{}, int64_t(10)}, {int64_t(2), int64_t(20)}},
                        {{Value{}, int64_t(30)}}},
                       {DataType::kInt64, DataType::kInt64});
  auto probe = Batches({{{Value{}, int64_t(1)}, {int64_t(2), int64_t(2)}},
                        {{int64_t(3), int64_t(3)}}},
                       {DataType::kInt64, DataType::kInt64});
  auto join = [&](JoinType t) {
    return RunAtDop1And4(std::make_shared<HashJoinOp>(
        build, probe, std::vector<int>{0}, std::vector<int>{0}, t));
  };
  EXPECT_EQ(join(JoinType::kInner),
            (std::vector<Row>{{int64_t(2), int64_t(2), int64_t(2),
                               int64_t(20)}}));
  EXPECT_EQ(join(JoinType::kSemi),
            (std::vector<Row>{{int64_t(2), int64_t(2)}}));
  EXPECT_EQ(join(JoinType::kLeft),
            (std::vector<Row>{
                {Value{}, int64_t(1), Value{}, Value{}},
                {int64_t(2), int64_t(2), int64_t(2), int64_t(20)},
                {int64_t(3), int64_t(3), Value{}, Value{}}}));
  EXPECT_EQ(join(JoinType::kAnti),
            (std::vector<Row>{{Value{}, int64_t(1)},
                              {int64_t(3), int64_t(3)}}));
}

TEST_F(OperatorTest, HashAggAllKinds) {
  auto values = Values({{std::string("a"), 1.0},
                        {std::string("a"), 3.0},
                        {std::string("b"), 10.0},
                        {std::string("a"), Value{}},
                        {std::string("b"), 10.0}},
                       {DataType::kString, DataType::kDouble});
  std::vector<AggSpec> aggs = {
      {AggKind::kSum, Col(1, DataType::kDouble)},
      {AggKind::kAvg, Col(1, DataType::kDouble)},
      {AggKind::kCount, Col(1, DataType::kDouble)},
      {AggKind::kCountStar, nullptr},
      {AggKind::kMin, Col(1, DataType::kDouble)},
      {AggKind::kMax, Col(1, DataType::kDouble)},
      {AggKind::kCountDistinct, Col(1, DataType::kDouble)},
  };
  auto agg = std::make_shared<HashAggOp>(values, std::vector<int>{0}, aggs);
  auto sort = std::make_shared<SortOp>(agg, std::vector<SortKey>{{0, false}});
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(sort, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  // Group "a": sum 4, avg 2, count(v) 2 (null skipped), count(*) 3.
  EXPECT_EQ(AsString(out[0][0]), "a");
  EXPECT_DOUBLE_EQ(AsDouble(out[0][1]), 4.0);
  EXPECT_DOUBLE_EQ(AsDouble(out[0][2]), 2.0);
  EXPECT_EQ(AsInt(out[0][3]), 2);
  EXPECT_EQ(AsInt(out[0][4]), 3);
  EXPECT_DOUBLE_EQ(AsDouble(out[0][5]), 1.0);
  EXPECT_DOUBLE_EQ(AsDouble(out[0][6]), 3.0);
  EXPECT_EQ(AsInt(out[0][7]), 2);
  // Group "b": distinct count dedups the two 10.0 values.
  EXPECT_EQ(AsInt(out[1][7]), 1);
}

TEST_F(OperatorTest, GlobalAggOnEmptyInputReturnsOneRow) {
  auto values = Values({}, {DataType::kDouble});
  auto agg = std::make_shared<HashAggOp>(
      values, std::vector<int>{},
      std::vector<AggSpec>{{AggKind::kCountStar, nullptr},
                           {AggKind::kSum, Col(0, DataType::kDouble)}});
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(agg, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(AsInt(out[0][0]), 0);
  EXPECT_TRUE(IsNull(out[0][1]));  // SUM of nothing is NULL
  // Integer arguments, no input batches at all, at dop 1 and 4.
  auto ints = std::make_shared<HashAggOp>(
      Batches({}, {DataType::kInt64}), std::vector<int>{},
      std::vector<AggSpec>{{AggKind::kCount, Col(0, DataType::kInt64)},
                           {AggKind::kSum, Col(0, DataType::kInt64)},
                           {AggKind::kMin, Col(0, DataType::kInt64)},
                           {AggKind::kCountDistinct,
                            Col(0, DataType::kInt64)}});
  const std::vector<Row> want = {{int64_t(0), Value{}, Value{}, int64_t(0)}};
  EXPECT_EQ(RunAtDop1And4(ints), want);
}

// An expression that fails must fail the plan with its own Status, not a
// generic one, whichever worker hit it.
TEST_F(OperatorTest, FailedExpressionKeepsItsStatus) {
  auto bad = std::make_shared<Expr>();
  bad->kind = static_cast<ExprKind>(255);  // Eval: NotSupported
  std::vector<std::vector<Row>> batches;
  for (int64_t i = 0; i < 6; ++i) batches.push_back({{i, std::string("s")}});
  auto input = Batches(batches, {DataType::kInt64, DataType::kString});
  const std::vector<PhysOpRef> plans = {
      std::make_shared<ProjectOp>(input, std::vector<ExprRef>{bad}),
      std::make_shared<HashAggOp>(input, std::vector<int>{0},  // typed
                                  std::vector<AggSpec>{{AggKind::kSum, bad}}),
      std::make_shared<HashAggOp>(input, std::vector<int>{1},  // encoded
                                  std::vector<AggSpec>{{AggKind::kSum, bad}}),
  };
  for (const PhysOpRef& plan : plans) {
    for (int dop : {1, 4}) {
      ctx_.parallelism = dop;
      std::vector<Row> out;
      const Status s = RunPlan(plan, &ctx_, &out);
      EXPECT_EQ(s.code(), Code::kNotSupported) << s.ToString() << " dop "
                                               << dop;
    }
  }
}

// A row that is NULL in one batch's evaluated argument must not stay NULL
// in the next batch a worker takes (dop 1 runs both on one worker).
TEST_F(OperatorTest, IntKeyAggArgumentNullsDoNotLeakAcrossBatches) {
  auto input = Batches({{{int64_t(1), int64_t(10), int64_t(0), Value{}},
                         {int64_t(1), int64_t(6), int64_t(3), int64_t(5)}},
                        {{int64_t(1), int64_t(8), int64_t(2), int64_t(1)},
                         {int64_t(1), int64_t(9), int64_t(3), int64_t(7)}}},
                       {DataType::kInt64, DataType::kInt64, DataType::kInt64,
                        DataType::kInt64});
  auto agg = std::make_shared<HashAggOp>(
      input, std::vector<int>{0},
      std::vector<AggSpec>{
          {AggKind::kSum,  // 10/0 is NULL; 6/3 + 8/2 + 9/3
           Div(Col(1, DataType::kInt64), Col(2, DataType::kInt64))},
          {AggKind::kCount,  // IN over NULL is NULL; the other three count
           In(Col(3, DataType::kInt64), {int64_t(1), int64_t(2)})}});
  const std::vector<Row> want = {{int64_t(1), 9.0, int64_t(3)}};
  EXPECT_EQ(RunAtDop1And4(agg), want);
}

// A NULL integer key is a group of its own, distinct from 0, and sorts
// first.
TEST_F(OperatorTest, IntKeyNullGroupIsDistinctFromZero) {
  auto input = Batches({{{Value{}, int64_t(1)}, {int64_t(0), int64_t(2)}},
                        {{Value{}, int64_t(3)}, {int64_t(5), int64_t(5)}},
                        {{int64_t(0), int64_t(4)}}},
                       {DataType::kInt64, DataType::kInt64});
  auto agg = std::make_shared<HashAggOp>(
      input, std::vector<int>{0},
      std::vector<AggSpec>{{AggKind::kSumInt, Col(1, DataType::kInt64)},
                           {AggKind::kCountStar, nullptr}});
  const std::vector<Row> want = {{Value{}, int64_t(4), int64_t(2)},
                                 {int64_t(0), int64_t(6), int64_t(2)},
                                 {int64_t(5), int64_t(5), int64_t(1)}};
  EXPECT_EQ(RunAtDop1And4(agg), want);
}

TEST_F(OperatorTest, TwoIntColumnKeysEmitInKeyOrder) {
  std::vector<std::vector<Row>> batches(4);
  std::map<std::pair<int64_t, int64_t>, int64_t> counts;  // b NULL as -1
  for (int64_t i = 0; i < 200; ++i) {
    const int64_t a = (i * 7) % 5, b = (i * 3) % 4;
    const Value bv = b == 3 ? Value{} : Value{b};
    batches[i % 4].push_back({a, bv, i});
    counts[{a, b == 3 ? -1 : b}]++;
  }
  auto input = Batches(batches, {DataType::kInt64, DataType::kInt64,
                                 DataType::kInt64});
  auto agg = std::make_shared<HashAggOp>(
      input, std::vector<int>{0, 1},
      std::vector<AggSpec>{{AggKind::kCountStar, nullptr}});
  std::vector<Row> want;
  for (const auto& [k, n] : counts) {
    want.push_back({k.first, k.second < 0 ? Value{} : Value{k.second}, n});
  }
  EXPECT_EQ(RunAtDop1And4(agg), want);
}

TEST_F(OperatorTest, Int32AndDateKeys) {
  const int64_t d1 = MakeDate(1995, 3, 1), d2 = MakeDate(1994, 1, 1);
  auto input = Batches({{{int64_t(7), d1, 1.5}, {int64_t(-2), d2, 2.0}},
                        {{int64_t(7), d1, 0.5}, {int64_t(7), d2, 1.0}}},
                       {DataType::kInt32, DataType::kDate, DataType::kDouble});
  auto agg = std::make_shared<HashAggOp>(
      input, std::vector<int>{0, 1},
      std::vector<AggSpec>{{AggKind::kSum, Col(2, DataType::kDouble)},
                           {AggKind::kMax, Col(2, DataType::kDouble)}});
  EXPECT_EQ(agg->out_types()[0], DataType::kInt32);
  EXPECT_EQ(agg->out_types()[1], DataType::kDate);
  const std::vector<Row> want = {{int64_t(-2), d2, 2.0, 2.0},
                                 {int64_t(7), d2, 1.0, 1.0},
                                 {int64_t(7), d1, 2.0, 1.5}};
  EXPECT_EQ(RunAtDop1And4(agg), want);
}

// COUNT(DISTINCT int): NULLs are not counted, and a value repeated across
// batches (so across workers at dop 4) is counted once per group.
TEST_F(OperatorTest, IntCountDistinctAcrossBatchesAndWorkers) {
  std::vector<std::vector<Row>> batches(8);
  std::map<int64_t, std::set<int64_t>> seen;
  std::set<int64_t> all;
  for (int64_t i = 0; i < 4000; ++i) {
    const int64_t g = i % 3;
    Value v{};
    if (i % 11 != 0) {
      const int64_t x = (i * 31) % 97;
      v = x;
      seen[g].insert(x);
      all.insert(x);
    }
    batches[i % 8].push_back({g, v});
  }
  auto input = Batches(batches, {DataType::kInt64, DataType::kInt64});
  const std::vector<AggSpec> aggs = {
      {AggKind::kCountDistinct, Col(1, DataType::kInt64)},
      {AggKind::kCount, Col(1, DataType::kInt64)},
      {AggKind::kMin, Col(1, DataType::kInt64)}};
  auto grouped =
      std::make_shared<HashAggOp>(input, std::vector<int>{0}, aggs);
  const std::vector<Row> out = RunAtDop1And4(grouped);
  ASSERT_EQ(out.size(), 3u);
  for (int64_t g = 0; g < 3; ++g) {
    EXPECT_EQ(AsInt(out[g][0]), g);
    EXPECT_EQ(AsInt(out[g][1]), static_cast<int64_t>(seen[g].size()));
    EXPECT_EQ(AsInt(out[g][3]), *seen[g].begin());
  }
  auto global = std::make_shared<HashAggOp>(input, std::vector<int>{}, aggs);
  const std::vector<Row> total = RunAtDop1And4(global);
  ASSERT_EQ(total.size(), 1u);
  EXPECT_EQ(AsInt(total[0][0]), static_cast<int64_t>(all.size()));
}

// Matches of a duplicated build key come out in build (batch, row) order.
TEST_F(OperatorTest, IntJoinDuplicateBuildKeysInBuildOrder) {
  std::vector<std::vector<Row>> build_batches(5);
  std::vector<Row> want;
  int64_t payload = 0;
  for (auto& rows : build_batches) {
    for (int r = 0; r < 4; ++r, ++payload) {
      const int64_t key = payload % 2 == 0 ? 7 : 8;
      rows.push_back({key, payload});
      if (key == 7) want.push_back({int64_t(7), key, payload});
    }
  }
  auto build = Batches(build_batches, {DataType::kInt64, DataType::kInt64});
  auto probe = Values({{int64_t(7)}}, {DataType::kInt64});
  auto join = std::make_shared<HashJoinOp>(
      build, probe, std::vector<int>{0}, std::vector<int>{0},
      JoinType::kInner);
  EXPECT_EQ(RunAtDop1And4(join), want);
}

TEST_F(OperatorTest, Int64BuildKeyJoinsInt32ProbeKey) {
  auto build = Values({{int64_t(1), std::string("one")},
                       {int64_t(3), std::string("three")}},
                      {DataType::kInt64, DataType::kString});
  auto probe = Batches({{{int64_t(3)}, {int64_t(2)}}, {{int64_t(1)}}},
                       {DataType::kInt32});
  auto join = std::make_shared<HashJoinOp>(
      build, probe, std::vector<int>{0}, std::vector<int>{0},
      JoinType::kInner);
  const std::vector<Row> want = {
      {int64_t(3), int64_t(3), std::string("three")},
      {int64_t(1), int64_t(1), std::string("one")}};
  EXPECT_EQ(RunAtDop1And4(join), want);
}

// Double keys compare exactly in GROUP BY, joins and COUNT(DISTINCT):
// values equal to six decimals stay apart, negative values are ordinary
// keys, and -0.0 equals 0.0.
TEST_F(OperatorTest, DoubleKeysAreExact) {
  const std::vector<double> xs = {1.0000001, 1.0000004, -1.5, -1.5, 0.0, -0.0};
  std::vector<std::vector<Row>> batches(2);
  for (size_t i = 0; i < xs.size(); ++i) batches[i % 2].push_back({xs[i]});
  auto input = Batches(batches, {DataType::kDouble});
  auto sorted = [](PhysOpRef child) {
    return std::make_shared<SortOp>(std::move(child),
                                    std::vector<SortKey>{{0}});
  };

  auto grouped = std::make_shared<HashAggOp>(
      input, std::vector<int>{0},
      std::vector<AggSpec>{{AggKind::kCountStar, nullptr}});
  const std::vector<Row> groups = {{-1.5, int64_t(2)},
                                   {0.0, int64_t(2)},
                                   {1.0000001, int64_t(1)},
                                   {1.0000004, int64_t(1)}};
  EXPECT_EQ(RunAtDop1And4(sorted(grouped)), groups);

  auto distinct = std::make_shared<HashAggOp>(
      input, std::vector<int>{},
      std::vector<AggSpec>{{AggKind::kCountDistinct,
                            Col(0, DataType::kDouble)}});
  EXPECT_EQ(RunAtDop1And4(distinct), (std::vector<Row>{{int64_t(4)}}));

  auto build = Values({{1.0000001, std::string("a")},
                       {-1.5, std::string("b")},
                       {0.0, std::string("z")}},
                      {DataType::kDouble, DataType::kString});
  auto probe = Batches({{{1.0000004}, {-0.0}}, {{1.0000001}, {-1.5}}},
                       {DataType::kDouble});
  auto join = std::make_shared<HashJoinOp>(build, probe, std::vector<int>{0},
                                           std::vector<int>{0},
                                           JoinType::kInner);
  const std::vector<Row> matches = {{-1.5, -1.5, std::string("b")},
                                    {-0.0, 0.0, std::string("z")},
                                    {1.0000001, 1.0000001, std::string("a")}};
  EXPECT_EQ(RunAtDop1And4(sorted(join)), matches);
}

TEST_F(OperatorTest, SortWithLimitAndDirections) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({i % 10, i});
  auto values = Values(rows, {DataType::kInt64, DataType::kInt64});
  auto sort = std::make_shared<SortOp>(
      values, std::vector<SortKey>{{0, true}, {1, false}}, 5);
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(sort, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(AsInt(out[0][0]), 9);
  EXPECT_EQ(AsInt(out[0][1]), 9);  // smallest i with key 9
  EXPECT_EQ(AsInt(out[4][1]), 49);
}

TEST_F(OperatorTest, LimitCutsAcrossBatches) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 5000; ++i) rows.push_back({i});
  auto values = Values(rows, {DataType::kInt64});
  auto limit = std::make_shared<LimitOp>(values, 3000);
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(limit, &ctx_, &out).ok());
  EXPECT_EQ(out.size(), 3000u);
}

// `col < INT64_MIN` and `col > INT64_MAX` have no representable pruning
// bound (computing one overflowed); the scan must still reject every row,
// while the inclusive comparisons find the extreme values.
TEST(ColumnScanTest, ExtremeIntComparisonsNeedNoOverflowingBound) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto schema = std::make_shared<Schema>(
      77, "extremes",
      std::vector<ColumnDef>{{"id", DataType::kInt64},
                             {"v", DataType::kInt64}},
      0);
  ColumnIndexOptions options;
  options.row_group_size = 4;
  ColumnIndex index(schema, options);
  const std::vector<int64_t> vals = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  for (size_t i = 0; i < vals.size(); ++i) {
    ASSERT_TRUE(index.Insert({static_cast<int64_t>(i), vals[i]}, 1).ok());
  }
  auto count = [&](ExprRef filter) {
    ColumnScanOp scan(&index, {1}, std::move(filter));
    ExecContext ctx;
    ctx.read_vid = 1;
    RowSet rows;
    EXPECT_TRUE(scan.Execute(&ctx, &rows).ok());
    return rows.TotalRows();
  };
  const auto v = Col(0, DataType::kInt64);
  EXPECT_EQ(count(Lt(v, ConstInt(kMin))), 0u);
  EXPECT_EQ(count(Gt(v, ConstInt(kMax))), 0u);
  EXPECT_EQ(count(Le(v, ConstInt(kMin))), 1u);
  EXPECT_EQ(count(Ge(v, ConstInt(kMax))), 1u);
  EXPECT_EQ(count(Lt(v, ConstInt(kMin + 1))), 1u);
  EXPECT_EQ(count(Gt(v, ConstInt(kMax - 1))), 1u);
}

TEST(CompactBatchTest, RemovesMaskedRowsInPlace) {
  Batch b = Batch::Make({DataType::kInt64, DataType::kString});
  for (int64_t i = 0; i < 6; ++i) {
    b.cols[0].AppendInt(i);
    b.cols[1].AppendString("s" + std::to_string(i));
    b.rows++;
  }
  CompactBatch(&b, {1, 0, 1, 0, 0, 1});
  ASSERT_EQ(b.rows, 3u);
  EXPECT_EQ(b.cols[0].ints, (std::vector<int64_t>{0, 2, 5}));
  EXPECT_EQ(b.cols[1].strs[2], "s5");
}

}  // namespace
}  // namespace imci
