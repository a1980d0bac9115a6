#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <tuple>

#include "exec/expr.h"
#include "exec/operators.h"
#include "tests/test_util.h"

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

// `+ - *` over every operand pairing: column and constant on either side,
// INT x INT (stays INT64), INT x DOUBLE (widens), NULL constants and nested
// arithmetic.
TEST(ExprTest, ArithmeticOperandForms) {
  Batch b = MakeBatch({{int64_t(7), 0.5, int64_t(3)},
                       {Value{}, 2.0, int64_t(-4)},
                       {int64_t(-2), Value{}, Value{}}},
                      {DataType::kInt64, DataType::kDouble, DataType::kInt32});
  const auto i = Col(0, DataType::kInt64);
  const auto d = Col(1, DataType::kDouble);
  const auto j = Col(2, DataType::kInt32);
  auto eval = [&](const ExprRef& e) {
    ColumnVector out;
    const Status st = e->Eval(b, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(out.type, e->out_type);
    EXPECT_EQ(out.size(), b.rows);
    return out;
  };
  // INT x INT stays INT64, whichever side is the constant.
  ColumnVector out = eval(Sub(ConstInt(10), i));
  EXPECT_EQ(out.type, DataType::kInt64);
  EXPECT_EQ(out.nulls, (std::vector<uint8_t>{0, 1, 0}));
  EXPECT_EQ(out.ints[0], 3);
  EXPECT_EQ(out.ints[2], 12);
  out = eval(Mul(j, ConstInt(-5)));
  EXPECT_EQ(out.type, DataType::kInt64);
  EXPECT_EQ(out.nulls, (std::vector<uint8_t>{0, 0, 1}));
  EXPECT_EQ(out.ints[0], -15);
  EXPECT_EQ(out.ints[1], 20);
  out = eval(Add(i, j));
  EXPECT_EQ(out.type, DataType::kInt64);
  EXPECT_EQ(out.nulls, (std::vector<uint8_t>{0, 1, 1}));
  EXPECT_EQ(out.ints[0], 10);
  out = eval(Add(ConstInt(2), ConstInt(3)));
  EXPECT_EQ(out.ints, (std::vector<int64_t>{5, 5, 5}));
  // INT x DOUBLE widens, from either side and for constants too.
  out = eval(Mul(i, d));
  EXPECT_EQ(out.type, DataType::kDouble);
  EXPECT_EQ(out.nulls, (std::vector<uint8_t>{0, 1, 1}));
  EXPECT_EQ(out.dbls[0], 3.5);
  out = eval(Sub(d, j));
  EXPECT_EQ(out.nulls, (std::vector<uint8_t>{0, 0, 1}));
  EXPECT_EQ(out.dbls[0], -2.5);
  EXPECT_EQ(out.dbls[1], 6.0);
  out = eval(Sub(ConstDouble(1.0), j));
  EXPECT_EQ(out.nulls, (std::vector<uint8_t>{0, 0, 1}));
  EXPECT_EQ(out.dbls[0], -2.0);
  EXPECT_EQ(out.dbls[1], 5.0);
  out = eval(Add(i, ConstDouble(0.25)));
  EXPECT_EQ(out.dbls[0], 7.25);
  EXPECT_EQ(out.dbls[2], -1.75);
  // A NULL constant makes every row NULL, in either lane.
  for (const ExprRef& null : {ConstInt(0), ConstDouble(0.0)}) {
    null->constant = Value{};
    for (const ExprRef& e : {Add(i, null), Mul(null, d), Sub(null, null)}) {
      out = eval(e);
      EXPECT_EQ(out.nulls, (std::vector<uint8_t>{1, 1, 1}));
    }
  }
  // Nested arithmetic reads its inner results the same way.
  out = eval(Mul(d, Sub(ConstInt(1), Mul(j, ConstInt(2)))));
  EXPECT_EQ(out.nulls, (std::vector<uint8_t>{0, 0, 1}));
  EXPECT_EQ(out.dbls[0], -2.5);
  EXPECT_EQ(out.dbls[1], 18.0);
  // An operand ordinal outside the batch still fails cleanly.
  for (const ExprRef& e : {Add(Col(3, DataType::kInt64), ConstInt(1)),
                           Mul(d, Col(-1, DataType::kDouble))}) {
    const Status st = e->Eval(b, &out);
    EXPECT_EQ(st.code(), Code::kInvalidArgument) << st.ToString();
  }
  // The batch's lanes pick the result lane, not the plan's types: a DOUBLE
  // column that a plan types INT64 adds as DOUBLE.
  ASSERT_TRUE(Add(Col(1, DataType::kInt64), ConstInt(1))->Eval(b, &out).ok());
  EXPECT_EQ(out.type, DataType::kDouble);
  EXPECT_EQ(out.nulls, (std::vector<uint8_t>{0, 0, 1}));
  EXPECT_EQ(out.dbls[0], 1.5);
  EXPECT_EQ(out.dbls[1], 3.0);
}

// BIGINT arithmetic that leaves int64 fails the expression, as MySQL's
// "BIGINT value is out of range" does, instead of wrapping (signed
// overflow). A NULL row never overflows, whatever its lane holds.
TEST(ExprTest, BigintOverflowIsOutOfRange) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Batch b = MakeBatch({{int64_t(0), int64_t(1)},
                       {kMax, int64_t(-1)},
                       {kMin, Value{}}},
                      {DataType::kInt64, DataType::kInt64});
  b.cols[1].ints[2] = kMax;  // the lane under row 2's NULL
  const auto x = Col(0, DataType::kInt64);
  const auto y = Col(1, DataType::kInt64);
  for (const ExprRef& e :
       {Add(ConstInt(kMax), ConstInt(1)), Sub(ConstInt(kMin), ConstInt(1)),
        Mul(ConstInt(kMin), ConstInt(-1)), Add(x, ConstInt(1)),
        Sub(x, ConstInt(1)), Mul(x, ConstInt(-1)), Sub(x, y),
        Mul(ConstInt(2), x)}) {
    ColumnVector out;
    const Status st = e->Eval(b, &out);
    EXPECT_EQ(st.code(), Code::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.ToString().find("BIGINT value is out of range"),
              std::string::npos)
        << st.ToString();
  }
  // In range: kMax + (-1), kMin * 1; row 2's NULL y never overflows.
  ColumnVector out;
  ASSERT_TRUE(Add(y, ConstInt(1))->Eval(b, &out).ok());
  EXPECT_EQ(out.nulls, (std::vector<uint8_t>{0, 0, 1}));
  ASSERT_TRUE(Add(x, y)->Eval(b, &out).ok());
  EXPECT_EQ(out.nulls, (std::vector<uint8_t>{0, 0, 1}));
  EXPECT_EQ(out.ints[0], 1);
  EXPECT_EQ(out.ints[1], kMax - 1);
  ASSERT_TRUE(Mul(x, Mul(y, y))->Eval(b, &out).ok());
  EXPECT_EQ(out.ints[1], kMax);
  // A DOUBLE operand takes the DOUBLE lane, which does not overflow.
  ASSERT_TRUE(Add(x, ConstDouble(1.0))->Eval(b, &out).ok());
  EXPECT_EQ(out.dbls[1], 9223372036854775808.0);
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
  EXPECT_EQ(out.str(0), "13");
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

// Comparing a string with a number used to read the empty lane of one side
// (SEGV) or throw bad_variant_access from CompareValues (IN); it must fail
// with InvalidArgument instead. So must the other ill-typed operands a
// deserialized plan can carry, arithmetic on a string among them.
TEST(ExprTest, IllTypedOperandsFailCleanly) {
  Batch b = MakeBatch({{int64_t(1), std::string("x")}},
                      {DataType::kInt64, DataType::kString});
  const auto i = Col(0, DataType::kInt64);
  const auto s = Col(1, DataType::kString);
  std::vector<ExprRef> bad = {
      Eq(i, ConstString("x")),
      Lt(s, ConstInt(3)),
      In(i, {Value(std::string("x"))}),
      In(s, {Value(int64_t(1))}),
      Between(i, ConstString("a"), ConstString("z")),
      Between(s, ConstString("a"), ConstInt(3)),
      Like(i, "%"),
      Col(2, DataType::kInt64),  // no such column
      Add(s, ConstInt(1)),
      Mul(i, ConstString("x")),
  };
  for (auto [type, value] : {std::pair<DataType, Value>{DataType::kInt64,
                                                         std::string("x")},
                             {DataType::kInt64, 2.5},
                             {DataType::kString, int64_t(1)},
                             {DataType::kDouble, std::string("x")}}) {
    auto c = ConstInt(0);
    c->out_type = type;
    c->constant = value;
    bad.push_back(Eq(c, c));
  }
  for (const ExprRef& e : bad) {
    std::vector<uint8_t> mask;
    const Status st = e->EvalMask(b, &mask);
    EXPECT_EQ(st.code(), Code::kInvalidArgument) << st.ToString();
  }
  // A NULL in an IN list never matches, whatever the column's type.
  std::vector<uint8_t> mask;
  ASSERT_TRUE(In(i, {Value{}, Value(int64_t(1))})->EvalMask(b, &mask).ok());
  EXPECT_EQ(mask, (std::vector<uint8_t>{1}));
}

// CASE with an INT and a DOUBLE branch used to take the INT branch's type
// and read the DOUBLE branch's empty ints lane (SEGV); it widens instead.
TEST(ExprTest, MixedIntDoubleCaseWidensToDouble) {
  Batch b = MakeBatch({{int64_t(1)}, {int64_t(0)}, {Value{}}},
                      {DataType::kInt64});
  const auto cond = Eq(Col(0, DataType::kInt64), ConstInt(1));
  const std::vector<std::pair<ExprRef, std::vector<double>>> cases = {
      {Case(cond, ConstInt(1), ConstDouble(2.5)), {1.0, 2.5, 2.5}},
      {Case(cond, ConstDouble(1.5), ConstInt(2)), {1.5, 2.0, 2.0}},
  };
  for (const auto& [c, want] : cases) {
    EXPECT_EQ(c->out_type, DataType::kDouble);
    ColumnVector out;
    ASSERT_TRUE(c->Eval(b, &out).ok());
    EXPECT_EQ(out.type, DataType::kDouble);
    EXPECT_EQ(out.dbls, want);
  }
  ColumnVector out;
  const Status st =
      Case(cond, ConstString("a"), ConstInt(1))->Eval(b, &out);
  EXPECT_EQ(st.code(), Code::kInvalidArgument) << st.ToString();
}

class OperatorTest : public ::testing::Test {
 protected:
  OperatorTest() : pool_(4) {
    ctx_.pool = &pool_;
    ctx_.parallelism = 4;
    ctx_.read_vid = kMaxVid;
  }
  PhysOpRef Values(std::vector<Row> rows, std::vector<DataType> types) {
    return std::make_shared<ValuesOp>(testing_util::ToRowSet(types, rows));
  }
  /// A child that emits one batch per element of `batches` (ValuesOp
  /// emits a single batch), so parallel workers split the input.
  PhysOpRef Batches(std::vector<std::vector<Row>> batches,
                    std::vector<DataType> types) {
    std::vector<PhysOpRef> parts;
    for (auto& rows : batches) parts.push_back(Values(std::move(rows), types));
    return std::make_shared<UnionOp>(std::move(types), std::move(parts));
  }
  /// Runs `plan` at dop 1, 3 and 4 on the 4-thread pool (at dop 3, three
  /// workers share four exchange partitions); every dop must return the
  /// same rows in the same order. Returns the dop-1 rows.
  std::vector<Row> RunAtDops(const PhysOpRef& plan) {
    std::vector<Row> serial;
    ctx_.parallelism = 1;
    EXPECT_TRUE(RunPlan(plan, &ctx_, &serial).ok());
    for (int dop : {3, 4}) {
      std::vector<Row> parallel;
      ctx_.parallelism = dop;
      EXPECT_TRUE(RunPlan(plan, &ctx_, &parallel).ok());
      EXPECT_EQ(serial, parallel) << "dop " << dop;
    }
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
    return RunAtDops(std::make_shared<HashJoinOp>(
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

// A batch whose key columns hold no NULL and no string gets fixed-width key
// images; one with a NULL key gets the generic ones. Both must land the
// same key in the same group (-0.0 and 0.0 are one key), including a run
// of equal keys that crosses
// a batch boundary (a row reuses the previous row's group only inside a
// batch), and the typed SUM/AVG/COUNT loops must skip NULL arguments on
// both lanes.
TEST_F(OperatorTest, HashAggFixedAndGenericImagesShareGroups) {
  const Value null;
  const std::vector<DataType> types = {DataType::kInt64, DataType::kDouble,
                                       DataType::kInt64, DataType::kDouble};
  // Rows are (k, f, i, d); the groups are (k, f).
  const std::vector<std::vector<Row>> batches = {
      {{int64_t(2), -0.0, int64_t(4), null},
       {int64_t(1), 0.5, int64_t(10), 1.5},
       {int64_t(1), 0.5, null, 2.0},
       {int64_t(1), 0.5, int64_t(-3), 0.25}},
      {{int64_t(1), 0.5, int64_t(7), null},
       {int64_t(1), 0.5, null, -1.0},
       {int64_t(3), 2.5, int64_t(100), 3.0},
       {int64_t(2), 0.0, int64_t(6), 0.5},
       {null, 0.5, int64_t(1), null},
       {int64_t(3), 2.5, null, null}},
      {{int64_t(3), 2.5, int64_t(-50), 1.0},
       {int64_t(3), 2.5, null, 0.5},
       {int64_t(1), 0.5, int64_t(2), 4.0}},
  };
  const ExprRef i = Col(2, DataType::kInt64), d = Col(3, DataType::kDouble);
  auto agg = std::make_shared<HashAggOp>(
      Batches(batches, types), std::vector<int>{0, 1},
      std::vector<AggSpec>{{AggKind::kSum, i},
                           {AggKind::kSum, d},
                           {AggKind::kAvg, i},
                           {AggKind::kAvg, d},
                           {AggKind::kCount, i},
                           {AggKind::kCount, d},
                           {AggKind::kCountStar, nullptr},
                           {AggKind::kSumInt, i}});
  // k, f, SUM(i), SUM(d), AVG(i), AVG(d), COUNT(i), COUNT(d), COUNT(*),
  // the int SUM(i); NULL keys first.
  const std::vector<Row> want = {
      {null, 0.5, 1.0, null, 1.0, null, int64_t(1), int64_t(0), int64_t(1),
       int64_t(1)},
      {int64_t(1), 0.5, 16.0, 6.75, 4.0, 6.75 / 5, int64_t(4), int64_t(5),
       int64_t(6), int64_t(16)},
      {int64_t(2), 0.0, 10.0, 0.5, 5.0, 0.5, int64_t(2), int64_t(1),
       int64_t(2), int64_t(10)},
      {int64_t(3), 2.5, 50.0, 4.5, 25.0, 1.5, int64_t(2), int64_t(3),
       int64_t(4), int64_t(50)},
  };
  EXPECT_EQ(RunAtDops(agg), want);
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
  EXPECT_EQ(RunAtDops(ints), want);
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
  EXPECT_EQ(RunAtDops(agg), want);
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
  EXPECT_EQ(RunAtDops(agg), want);
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
  EXPECT_EQ(RunAtDops(agg), want);
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
  EXPECT_EQ(RunAtDops(agg), want);
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
  const std::vector<Row> out = RunAtDops(grouped);
  ASSERT_EQ(out.size(), 3u);
  for (int64_t g = 0; g < 3; ++g) {
    EXPECT_EQ(AsInt(out[g][0]), g);
    EXPECT_EQ(AsInt(out[g][1]), static_cast<int64_t>(seen[g].size()));
    EXPECT_EQ(AsInt(out[g][3]), *seen[g].begin());
  }
  auto global = std::make_shared<HashAggOp>(input, std::vector<int>{}, aggs);
  const std::vector<Row> total = RunAtDops(global);
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
  EXPECT_EQ(RunAtDops(join), want);
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
  EXPECT_EQ(RunAtDops(join), want);
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
  EXPECT_EQ(RunAtDops(grouped), groups);

  auto distinct = std::make_shared<HashAggOp>(
      input, std::vector<int>{},
      std::vector<AggSpec>{{AggKind::kCountDistinct,
                            Col(0, DataType::kDouble)}});
  EXPECT_EQ(RunAtDops(distinct), (std::vector<Row>{{int64_t(4)}}));

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
  EXPECT_EQ(RunAtDops(sorted(join)), matches);
}

// An integer keyed against a double matches by value, as Cmp compares the
// two, with either side building; a string keyed against a number is an
// error, not a byte comparison.
TEST_F(OperatorTest, MixedTypeJoinKeys) {
  auto ints = Batches({{{int64_t(5), std::string("five")},
                        {int64_t(0), std::string("zero")}},
                       {{int64_t(2), std::string("two")}}},
                      {DataType::kInt64, DataType::kString});
  auto dbls = Batches({{{5.0}, {2.5}}, {{-0.0}, {Value{}}}},
                      {DataType::kDouble});
  auto int_build = std::make_shared<HashJoinOp>(
      ints, dbls, std::vector<int>{0}, std::vector<int>{0}, JoinType::kInner);
  EXPECT_EQ(RunAtDops(int_build),
            (std::vector<Row>{{5.0, int64_t(5), std::string("five")},
                              {-0.0, int64_t(0), std::string("zero")}}));
  auto dbl_build = std::make_shared<HashJoinOp>(
      dbls, ints, std::vector<int>{0}, std::vector<int>{0}, JoinType::kInner);
  EXPECT_EQ(RunAtDops(dbl_build),
            (std::vector<Row>{{int64_t(5), std::string("five"), 5.0},
                              {int64_t(0), std::string("zero"), -0.0}}));

  auto str_vs_int = std::make_shared<HashJoinOp>(
      ints, ints, std::vector<int>{1}, std::vector<int>{0}, JoinType::kSemi);
  for (int dop : {1, 4}) {
    ctx_.parallelism = dop;
    std::vector<Row> out;
    const Status s = RunPlan(str_vs_int, &ctx_, &out);
    EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString() << " dop "
                                                << dop;
  }
}

// CompareValues' order on values and, column by column, on rows.
bool ValueLess(const Value& x, const Value& y) {
  return CompareValues(x, y) < 0;
}
bool RowLess(const Row& x, const Row& y) {
  for (size_t i = 0; i < x.size(); ++i) {
    if (const int c = CompareValues(x[i], y[i]); c != 0) return c < 0;
  }
  return false;
}

// The std::map model of HashAggOp over `rows`: one row per key in
// ascending key order (a global aggregate has one row), each aggregate's
// argument a bare column.
std::vector<Row> ModelAgg(const std::vector<Row>& rows,
                          const std::vector<int>& keys,
                          const std::vector<AggSpec>& aggs) {
  std::map<Row, std::vector<Row>, decltype(&RowLess)> groups(&RowLess);
  for (const Row& r : rows) {
    Row k;
    for (int c : keys) k.push_back(r[c]);
    groups[k].push_back(r);
  }
  if (keys.empty()) groups[Row{}];  // a global aggregate has one row
  std::vector<Row> out;
  for (const auto& [key, members] : groups) {
    Row o = key;
    for (const AggSpec& a : aggs) {
      std::vector<Value> vals;  // the non-NULL arguments
      for (const Row& m : members) {
        if (a.arg && !IsNull(m[a.arg->col])) vals.push_back(m[a.arg->col]);
      }
      double sum = 0;
      int64_t isum = 0;
      for (const Value& v : vals) {
        if (a.kind == AggKind::kSumInt) {
          isum += AsInt(v);
        } else if (a.kind == AggKind::kSum || a.kind == AggKind::kAvg) {
          sum += NumericValue(v);
        }
      }
      switch (a.kind) {
        case AggKind::kSum:
          o.push_back(vals.empty() ? Value{} : Value{sum});
          break;
        case AggKind::kAvg:
          o.push_back(vals.empty() ? Value{} : Value{sum / vals.size()});
          break;
        case AggKind::kCount:
          o.push_back(static_cast<int64_t>(vals.size()));
          break;
        case AggKind::kCountStar:
          o.push_back(static_cast<int64_t>(members.size()));
          break;
        case AggKind::kSumInt:
          o.push_back(isum);
          break;
        case AggKind::kMin:
        case AggKind::kMax:
          if (vals.empty()) {
            o.push_back(Value{});
          } else if (a.kind == AggKind::kMin) {
            o.push_back(*std::min_element(vals.begin(), vals.end(), ValueLess));
          } else {
            o.push_back(*std::max_element(vals.begin(), vals.end(), ValueLess));
          }
          break;
        case AggKind::kCountDistinct:
          o.push_back(static_cast<int64_t>(
              std::set<Value, decltype(&ValueLess)>(vals.begin(), vals.end(),
                                                    &ValueLess)
                  .size()));
          break;
      }
    }
    out.push_back(std::move(o));
  }
  return out;
}

// The nested-loop model of HashJoinOp: probe rows in order, each with its
// matches in build order; a left join pads an unmatched probe row with
// `build_width` NULLs.
std::vector<Row> ModelJoin(const std::vector<Row>& build,
                           const std::vector<Row>& probe,
                           const std::vector<int>& bk,
                           const std::vector<int>& pk, JoinType type,
                           size_t build_width) {
  std::vector<Row> out;
  for (const Row& p : probe) {
    std::vector<const Row*> matches;
    for (const Row& b : build) {
      bool eq = true;
      for (size_t k = 0; k < bk.size(); ++k) {
        eq = eq && !IsNull(p[pk[k]]) && !IsNull(b[bk[k]]) &&
             CompareValues(p[pk[k]], b[bk[k]]) == 0;
      }
      if (eq) matches.push_back(&b);
    }
    auto emit = [&](const Row* b) {
      Row o = p;
      for (size_t c = 0; c < build_width; ++c) {
        o.push_back(b ? (*b)[c] : Value{});
      }
      out.push_back(std::move(o));
    };
    switch (type) {
      case JoinType::kInner:
        for (const Row* b : matches) emit(b);
        break;
      case JoinType::kLeft:
        if (matches.empty()) emit(nullptr);
        for (const Row* b : matches) emit(b);
        break;
      case JoinType::kSemi:
        if (!matches.empty()) out.push_back(p);
        break;
      case JoinType::kAnti:
        if (matches.empty()) out.push_back(p);
        break;
    }
  }
  return out;
}

// Hash join and hash aggregation against nested-loop and std::map models
// built on CompareValues: random keys of 1-3 columns over every key type
// (with -0.0, "", strings longer than a key word and embedded NULs), ~20%
// NULLs, several batches, every AggKind and JoinType, at dop 1, 3 and 4.
// Half the iterations spread the integers 2^20 apart, so a single integer
// key takes the hashed path there and the dense path elsewhere; half drop
// the COUNT DISTINCTs, which keep an aggregation hashed.
// The aggregate must come out in the model's ascending key order. One
// aggregation groups thousands of integer keys over at least 8 batches, so
// every worker holds groups of every exchange partition; one more groups by
// 66 columns, so its null mask takes two words.
TEST_F(OperatorTest, HashKernelsMatchReference) {
  const uint64_t seed = testing_util::TestSeed(20240601);
  SCOPED_TRACE(::testing::Message() << "IMCI_TEST_SEED=" << seed);
  std::mt19937_64 rng(seed);
  auto pick = [&](size_t n) { return static_cast<int>(rng() % n); };

  const std::vector<DataType> types = {
      DataType::kInt64, DataType::kInt32,  DataType::kDate,
      DataType::kDouble, DataType::kString, DataType::kInt64,
      DataType::kInt32, DataType::kDate,   DataType::kDouble,
      DataType::kString};
  const std::vector<int> numeric = {0, 1, 2, 3, 5, 6, 7, 8};
  const std::vector<int> integer = {0, 1, 2, 5, 6, 7};
  const std::vector<int> doubles = {3, 8}, strings = {4, 9};
  const std::vector<double> dbl_values = {-1.5, -0.0, 0.0, 0.25, 1.0, 3.0};
  const std::vector<std::string> str_values = {
      "",         "a",          std::string("a\0", 2), "ab",
      "ba",       "\xff",       "abcdefgh",            "abcdefghij",
      "abcdefghik", std::string("abcdefgh\0", 9)};
  auto any_of = [&](const std::vector<int>& cols) {
    return cols[pick(cols.size())];
  };
  // Integers are -3..3 times int_scale: 1 keeps a single integer key dense,
  // 2^20 makes it sparse at these row counts.
  int64_t int_scale = 1;
  auto value = [&](DataType t) -> Value {
    if (pick(5) == 0) return Value{};
    if (t == DataType::kDouble) return dbl_values[pick(dbl_values.size())];
    if (t == DataType::kString) return str_values[pick(str_values.size())];
    return int64_t(pick(7) - 3) * int_scale;
  };
  // Several batches (some empty) of random rows; `rows` gets them in order.
  auto draw_input = [&](const std::vector<DataType>& ts,
                        const std::function<Row()>& row,
                        std::vector<Row>* rows) {
    std::vector<std::vector<Row>> batches(1 + pick(5));
    for (auto& batch : batches) {
      for (int n = pick(40); n > 0; --n) {
        batch.push_back(row());
        rows->push_back(batch.back());
      }
    }
    return Batches(std::move(batches), ts);
  };
  auto random_row = [&] {
    Row r;
    for (DataType t : types) r.push_back(value(t));
    return r;
  };
  auto col = [&](int c) { return Col(c, types[c]); };

  const int iters = testing_util::TestIters(150);
  for (int it = 0; it < iters; ++it) {
    SCOPED_TRACE(::testing::Message() << "iteration " << it);
    int_scale = pick(2) == 0 ? int64_t{1} << 20 : 1;
    std::vector<Row> rows;
    auto input = draw_input(types, random_row, &rows);
    std::vector<int> keys;
    for (int n = pick(4); n > 0; --n) keys.push_back(pick(types.size()));
    std::vector<AggSpec> aggs = {
        {AggKind::kSum, col(any_of(numeric))},
        {AggKind::kAvg, col(any_of(numeric))},
        {AggKind::kCount, col(pick(types.size()))},
        {AggKind::kCountStar, nullptr},
        {AggKind::kSumInt, col(any_of(integer))},
        {AggKind::kMin, col(pick(types.size()))},
        {AggKind::kMax, col(pick(types.size()))},
        {AggKind::kMin, col(any_of(strings))},
        {AggKind::kMax, col(any_of(strings))},
        {AggKind::kCountDistinct, col(pick(types.size()))},
        {AggKind::kCountDistinct, col(any_of(doubles))},
        {AggKind::kCountDistinct, col(any_of(strings))},
    };
    EXPECT_EQ(RunAtDops(std::make_shared<HashAggOp>(input, keys, aggs)),
              ModelAgg(rows, keys, aggs));
    // A COUNT DISTINCT keeps the group keys hashed: the same aggregation
    // without them can take the dense path.
    aggs.resize(aggs.size() - 3);
    EXPECT_EQ(RunAtDops(std::make_shared<HashAggOp>(input, keys, aggs)),
              ModelAgg(rows, keys, aggs));

    std::vector<Row> build_rows;
    auto build = draw_input(types, random_row, &build_rows);
    std::vector<int> bk, pk;
    for (int n = 1 + pick(3); n > 0; --n) {
      const bool str = pick(4) == 0;
      bk.push_back(any_of(str ? strings : numeric));
      pk.push_back(any_of(str ? strings : numeric));
    }
    for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi,
                          JoinType::kAnti}) {
      SCOPED_TRACE(::testing::Message() << "join type "
                                        << static_cast<int>(type));
      EXPECT_EQ(RunAtDops(std::make_shared<HashJoinOp>(build, input, bk,
                                                           pk, type)),
                ModelJoin(build_rows, rows, bk, pk, type, types.size()));
    }

    // Sort: 1-3 keys in random directions, then the full row, against
    // std::sort under CompareValues.
    std::vector<SortKey> sort_keys;
    for (int n = 1 + pick(3); n > 0; --n) {
      sort_keys.push_back({pick(types.size()), pick(2) == 0});
    }
    const int64_t n = static_cast<int64_t>(rows.size());
    const int64_t limits[] = {-1, 0, 1, n / 2, n + 5};
    const int64_t limit = limits[pick(5)];
    SCOPED_TRACE(::testing::Message() << "sort limit " << limit);
    std::vector<Row> sorted = rows;
    std::sort(sorted.begin(), sorted.end(), [&](const Row& x, const Row& y) {
      for (const SortKey& k : sort_keys) {
        if (const int c = CompareValues(x[k.col], y[k.col]); c != 0) {
          return k.desc ? c > 0 : c < 0;
        }
      }
      return RowLess(x, y);
    });
    if (limit >= 0 && limit < n) sorted.resize(limit);
    EXPECT_EQ(RunAtDops(std::make_shared<SortOp>(input, sort_keys, limit)),
              sorted);
  }

  int_scale = 1;
  // High cardinality: ~6000 rows over 2000 integer keys in 16-23 batches,
  // so the partition fold merges COUNT DISTINCT keys and string MIN/MAX
  // states of every worker.
  std::vector<std::vector<Row>> many(16 + pick(8));
  std::vector<Row> many_rows;
  for (auto& batch : many) {
    for (int n = 250 + pick(150); n > 0; --n) {
      Row r = random_row();
      r[0] = pick(50) == 0 ? Value{} : Value{int64_t(pick(2000)) - 1000};
      batch.push_back(r);
      many_rows.push_back(std::move(r));
    }
  }
  auto many_input = Batches(std::move(many), types);
  const std::vector<int> many_keys = {0};
  const std::vector<AggSpec> many_aggs = {
      {AggKind::kCountDistinct, col(any_of(integer))},
      {AggKind::kCountDistinct, col(any_of(strings))},
      {AggKind::kMin, col(any_of(strings))},
      {AggKind::kMax, col(any_of(strings))},
      {AggKind::kSum, col(any_of(doubles))},
      {AggKind::kCountStar, nullptr}};
  EXPECT_EQ(RunAtDops(std::make_shared<HashAggOp>(many_input, many_keys,
                                                  many_aggs)),
            ModelAgg(many_rows, many_keys, many_aggs));

  // 66 group columns: 64 drawn from two prototype rows, then two INT64
  // columns whose NULLs only the second mask word tells apart.
  std::vector<DataType> wide_types;
  for (int c = 0; c < 64; ++c) wide_types.push_back(types[pick(types.size())]);
  wide_types.insert(wide_types.end(), 2, DataType::kInt64);
  Row protos[2];
  for (Row& proto : protos) {
    for (int c = 0; c < 64; ++c) proto.push_back(value(wide_types[c]));
  }
  auto wide_row = [&] {
    Row r = protos[pick(2)];
    for (int c = 0; c < 2; ++c) {
      const int v = pick(3);
      r.push_back(v == 0 ? Value{} : Value{int64_t(v)});
    }
    return r;
  };
  std::vector<Row> wide_rows;
  auto wide = draw_input(wide_types, wide_row, &wide_rows);
  std::vector<int> all(wide_types.size());
  std::iota(all.begin(), all.end(), 0);
  const std::vector<AggSpec> wide_aggs = {
      {AggKind::kCountStar, nullptr},
      {AggKind::kSumInt, Col(64, DataType::kInt64)}};
  EXPECT_EQ(RunAtDops(std::make_shared<HashAggOp>(wide, all, wide_aggs)),
            ModelAgg(wide_rows, all, wide_aggs));
}

// Dense integer keys index arrays by key - lo: a join when its key's
// span + 2 is at most 4 per non-NULL row of the side it indexes, an
// aggregation when its key's span + 2, times its workers, is at most 2 per
// input row. Inputs sit exactly at each bound and one row past it, at
// ordinary keys and at the int64 extremes, with NULL keys on both sides, an
// empty build side and sparse keys whose span overflows int64. Every join
// type runs with either side first; two probe-first joins filter a column
// scan, one with a dense probe side and a sparse build side, one the
// reverse. Rows and order must equal the nested-loop and std::map models at
// dop 1, 3 and 4.
TEST_F(OperatorTest, DenseIntKeysMatchModelAtBounds) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kFar = int64_t{1} << 20;
  const Value null;
  ctx_.read_vid = 1;  // the column scans' inserts
  // lo + d, wrapping as the engine's unsigned offsets do.
  auto at = [](int64_t lo, int64_t d) -> Value {
    return static_cast<int64_t>(static_cast<uint64_t>(lo) +
                                static_cast<uint64_t>(d));
  };
  const std::vector<DataType> types = {DataType::kInt64, DataType::kString,
                                       DataType::kDouble, DataType::kInt32};
  // Row i: key i, then a string, a double and an INT32 payload, all NULL in
  // every third row.
  auto rows_of = [&](const std::vector<Value>& keys) {
    std::vector<Row> rows;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i % 3 == 2) {
        rows.push_back({keys[i], null, null, null});
      } else {
        rows.push_back({keys[i], "s" + std::to_string(i % 5), 0.5 * i,
                        int64_t(i % 4) - 1});
      }
    }
    return rows;
  };
  // `rows` in batches of 1, 2, 3, 4, 1, ... rows.
  auto batched = [&](const std::vector<Row>& rows) {
    std::vector<std::vector<Row>> batches;
    for (size_t i = 0; i < rows.size();) {
      const size_t n = std::min(rows.size() - i, 1 + batches.size() % 4);
      batches.emplace_back(rows.begin() + i, rows.begin() + i + n);
      i += n;
    }
    return Batches(std::move(batches), types);
  };
  const JoinType join_types[] = {JoinType::kInner, JoinType::kLeft,
                                 JoinType::kSemi, JoinType::kAnti};

  struct JoinCase {
    std::string name;
    std::vector<Value> build, probe;
  };
  std::vector<JoinCase> joins;
  for (int64_t lo : {int64_t(-5), kMin, kMax - 30}) {
    // 8 non-NULL build keys over a span of 30: 30 + 2 = 4 * 8. Past the
    // bound, one of them is NULL: 32 > 4 * 7.
    std::vector<Value> build = {at(lo, 30), at(lo, 1),  null,
                                at(lo, 15), at(lo, 1),  at(lo, 0),
                                at(lo, 7),  null,       at(lo, 15),
                                at(lo, 29)};
    std::vector<Value> past = build;
    past[6] = null;
    // A probe side inside [lo - 1, lo + 31] is dense too; one with the
    // extremes is not.
    const std::vector<Value> near = {at(lo, 1),  null,       at(lo, -1),
                                     at(lo, 0),  at(lo, 2),  at(lo, 15),
                                     at(lo, 30), at(lo, 31), at(lo, 29),
                                     null,       at(lo, 7),  at(lo, 1)};
    std::vector<Value> far = near;
    far.insert(far.begin() + 3, {kMin, kMax});
    const std::string from = " from " + std::to_string(lo);
    joins.push_back({"at bound, near probes" + from, build, near});
    joins.push_back({"at bound, far probes" + from, build, far});
    joins.push_back({"past bound, near probes" + from, past, near});
    joins.push_back({"past bound, far probes" + from, past, far});
  }
  joins.push_back({"sparse", {kMin, int64_t(0), kMax, kMax, null, kFar},
                   {kMin, kMax, int64_t(0), int64_t(1), null, int64_t(-1),
                    kFar}});
  joins.push_back({"empty build", {}, {int64_t(0), int64_t(1), null}});
  joins.push_back({"NULL build", {null, null}, {int64_t(0), null}});
  for (const JoinCase& c : joins) {
    const std::vector<Row> build = rows_of(c.build), probe = rows_of(c.probe);
    for (bool probe_first : {false, true}) {
      for (JoinType type : join_types) {
        SCOPED_TRACE(::testing::Message()
                     << c.name << ", probe_first " << probe_first
                     << ", join type " << static_cast<int>(type));
        EXPECT_EQ(RunAtDops(std::make_shared<HashJoinOp>(
                      batched(build), batched(probe), std::vector<int>{0},
                      std::vector<int>{0}, type, probe_first)),
                  ModelJoin(build, probe, {0}, {0}, type, types.size()));
      }
    }
  }

  // Probe-first joins whose probe side's key set filters a column scan of
  // (v, id) rows with unique keys, so the scan's batch order cannot reorder
  // a probe row's matches. The density rule sees the filtered build side.
  const std::vector<ColumnDef> defs = {{"id", DataType::kInt64},
                                       {"v", DataType::kInt64, true}};
  ColumnIndexOptions options;
  options.row_group_size = 4;
  struct ScanCase {
    std::string name;
    std::vector<Value> build, probe;
  };
  const std::vector<ScanCase> scans = {
      // The scan keeps keys 0 and 9 of its build side: 9 + 2 > 4 * 2.
      {"dense probe side, sparse build side",
       {int64_t(0), kFar, kMin, null, kMax, int64_t(9), -kFar},
       {int64_t(0), int64_t(1), int64_t(2), int64_t(3), int64_t(4), null,
        int64_t(5), int64_t(6), int64_t(7), int64_t(8), int64_t(9),
        int64_t(3)}},
      {"sparse probe side, dense build side",
       {int64_t(0), int64_t(1), int64_t(2), int64_t(3), int64_t(4), null,
        int64_t(5), int64_t(6), int64_t(7), int64_t(8), int64_t(9),
        int64_t(10), int64_t(11)},
       {kMin, int64_t(3), kFar, int64_t(5), null, kMax, int64_t(11),
        int64_t(12), int64_t(-1), int64_t(3)}},
  };
  int schema_id = 90;
  for (const ScanCase& c : scans) {
    ColumnIndex index(
        std::make_shared<Schema>(schema_id++, "t", defs, 0), options);
    std::vector<Row> build;
    for (size_t i = 0; i < c.build.size(); ++i) {
      ASSERT_TRUE(index.Insert({int64_t(i), c.build[i]}, 1).ok());
      build.push_back({c.build[i], int64_t(i)});
    }
    auto scan = std::make_shared<ColumnScanOp>(
        &index, std::vector<int>{1, 0}, nullptr);
    const std::vector<Row> probe = rows_of(c.probe);
    for (JoinType type : join_types) {
      SCOPED_TRACE(::testing::Message()
                   << c.name << ", join type " << static_cast<int>(type));
      EXPECT_EQ(RunAtDops(std::make_shared<HashJoinOp>(
                    scan, batched(probe), std::vector<int>{0},
                    std::vector<int>{0}, type, /*probe_first=*/true)),
                ModelJoin(build, probe, {0}, {0}, type, 2));
    }
  }

  // Aggregations over 6 * W rows whose key spans 10: (10 + 2) * W = 2 * 6W
  // puts them exactly at the bound at dop W and past it at every higher
  // dop; one row fewer is past it at dop W.
  const std::vector<AggSpec> aggs = {
      {AggKind::kSum, Col(2, DataType::kDouble)},
      {AggKind::kAvg, Col(2, DataType::kDouble)},
      {AggKind::kAvg, Col(3, DataType::kInt32)},
      {AggKind::kCount, Col(1, DataType::kString)},
      {AggKind::kCountStar, nullptr},
      {AggKind::kSumInt, Col(3, DataType::kInt32)},
      {AggKind::kMin, Col(1, DataType::kString)},
      {AggKind::kMax, Col(1, DataType::kString)},
      {AggKind::kMin, Col(2, DataType::kDouble)},
      {AggKind::kMax, Col(3, DataType::kInt32)}};
  auto check_agg = [&](const std::vector<Value>& keys,
                       const std::string& name) {
    const std::vector<Row> rows = rows_of(keys);
    for (const std::vector<int>& group : {std::vector<int>{0},
                                          std::vector<int>{3}}) {
      SCOPED_TRACE(::testing::Message() << name << ", group column "
                                        << group[0]);
      EXPECT_EQ(RunAtDops(std::make_shared<HashAggOp>(batched(rows), group,
                                                      aggs)),
                ModelAgg(rows, group, aggs));
    }
  };
  for (int64_t lo : {int64_t(-5), kMin, kMax - 10}) {
    const Value pattern[] = {at(lo, 0),  null,      at(lo, 10),
                             at(lo, 3),  at(lo, 3), at(lo, 7)};
    for (int workers : {1, 3, 4}) {
      std::vector<Value> keys;
      for (int i = 0; i < 6 * workers; ++i) keys.push_back(pattern[i % 6]);
      const std::string name = "from " + std::to_string(lo) + ", " +
                               std::to_string(keys.size()) + " rows";
      check_agg(keys, name);
      keys.pop_back();
      check_agg(keys, name + " less one");
    }
  }
  std::vector<Value> sparse;
  for (int i = 0; i < 24; ++i) {
    const Value cycle[] = {kMin, kMax, null, int64_t(0), kMax};
    sparse.push_back(cycle[i % 5]);
  }
  check_agg(sparse, "sparse");
}

// The join gathers its output a column at a time from a list of matches.
// The inputs' NULL rows hold junk lanes (7, 7.5, "junk"), which every
// output NULL must replace with 0, 0.0 or "": a left join pads unmatched
// probe rows with INT64, DOUBLE and STRING build NULLs, and the probe
// columns carry NULLs of their own. One probe row matches 2100 build rows,
// more than a batch. The RowSet is read lane by lane, then row by row
// against a nested-loop model, at dop 1, 3 and 4.
TEST_F(OperatorTest, JoinGatherKeepsNullLanes) {
  // Emits fixed batches whose NULL rows hold junk lanes.
  class JunkOp : public PhysOp {
   public:
    JunkOp(std::vector<DataType> types,
           const std::vector<std::vector<Row>>& batches) {
      out_types_ = std::move(types);
      for (const std::vector<Row>& rows : batches) {
        Batch b = Batch::Make(out_types_);
        for (const Row& r : rows) {
          for (size_t c = 0; c < r.size(); ++c) {
            ColumnVector& v = b.cols[c];
            v.AppendValue(r[c]);
            if (!IsNull(r[c])) continue;
            if (v.type == DataType::kDouble) {
              v.dbls.back() = 7.5;
            } else if (v.type == DataType::kString) {
              v.offs.pop_back();
              v.PushStr("junk");
            } else {
              v.ints.back() = 7;
            }
          }
          b.rows++;
        }
        batches_.push_back(std::move(b));
      }
    }
    Status Execute(ExecContext*, RowSet* out) override {
      out->types = out_types_;
      out->batches = batches_;
      return Status::OK();
    }

   private:
    std::vector<Batch> batches_;
  };

  const std::vector<DataType> build_types = {
      DataType::kInt64, DataType::kInt64, DataType::kDouble,
      DataType::kString};
  std::vector<std::vector<Row>> build_batches(2);
  std::vector<Row> build_rows;
  for (int64_t i = 0; i < 2300; ++i) {
    const int64_t key = i < 2100 ? 7 : i % 5;
    Row r = {key, i % 5 == 0 ? Value{} : Value{i},
             i % 7 == 0 ? Value{} : Value{i * 0.5},
             i % 3 == 0 ? Value{} : Value{"s" + std::to_string(i)}};
    build_batches[i < 1200 ? 0 : 1].push_back(r);
    build_rows.push_back(std::move(r));
  }
  const std::vector<DataType> probe_types = {DataType::kInt64,
                                             DataType::kDouble,
                                             DataType::kString};
  const std::vector<std::vector<Row>> probe_batches = {
      {{int64_t(7), Value{}, std::string("p0")},
       {int64_t(42), 1.5, Value{}},
       {Value{}, Value{}, std::string("p2")},
       {int64_t(3), -2.0, std::string("p3")}},
      {{int64_t(1), Value{}, Value{}}, {int64_t(99), 0.5, std::string("")}}};
  std::vector<Row> probe_rows;
  for (const auto& rows : probe_batches) {
    probe_rows.insert(probe_rows.end(), rows.begin(), rows.end());
  }
  auto build = std::make_shared<JunkOp>(build_types, build_batches);
  auto probe = std::make_shared<JunkOp>(probe_types, probe_batches);

  for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi,
                        JoinType::kAnti}) {
    std::vector<Row> want;
    for (const Row& p : probe_rows) {
      std::vector<const Row*> matches;
      for (const Row& b : build_rows) {
        if (!IsNull(p[0]) && CompareValues(p[0], b[0]) == 0) {
          matches.push_back(&b);
        }
      }
      const bool pads = type == JoinType::kLeft && matches.empty();
      if (type == JoinType::kInner || type == JoinType::kLeft) {
        if (pads) matches.push_back(nullptr);
        for (const Row* b : matches) {
          Row o = p;
          for (size_t c = 0; c < build_types.size(); ++c) {
            o.push_back(b ? (*b)[c] : Value{});
          }
          want.push_back(std::move(o));
        }
      } else if (matches.empty() == (type == JoinType::kAnti)) {
        want.push_back(p);
      }
    }
    auto join = std::make_shared<HashJoinOp>(build, probe, std::vector<int>{0},
                                             std::vector<int>{0}, type);
    for (int dop : {1, 3, 4}) {
      SCOPED_TRACE(::testing::Message() << "join type "
                                        << static_cast<int>(type) << " dop "
                                        << dop);
      ctx_.parallelism = dop;
      RowSet set;
      ASSERT_TRUE(join->Execute(&ctx_, &set).ok());
      std::vector<Row> got;
      size_t nulls = 0;
      for (const Batch& b : set.batches) {
        ASSERT_EQ(b.cols.size(), join->out_types().size());
        for (const ColumnVector& v : b.cols) {
          ASSERT_EQ(v.nulls.size(), b.rows);
          for (size_t i = 0; i < b.rows; ++i) {
            if (!v.nulls[i]) continue;
            ++nulls;
            if (v.type == DataType::kDouble) {
              EXPECT_EQ(v.dbls[i], 0.0);
            } else if (v.type == DataType::kString) {
              EXPECT_EQ(v.str(i), "");
            } else {
              EXPECT_EQ(v.ints[i], 0);
            }
          }
        }
        for (size_t i = 0; i < b.rows; ++i) {
          Row r;
          for (const ColumnVector& v : b.cols) r.push_back(v.GetValue(i));
          got.push_back(std::move(r));
        }
      }
      EXPECT_GT(nulls, 0u);
      EXPECT_EQ(got, want);
    }
  }
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

// SortOp's order is total over doubles: NaN (after +inf when positive),
// +-inf, -0.0 == 0.0 and NULL. Every shuffle of the same rows, split into
// batches at random, must give bit-identical output, in both directions
// and with a LIMIT; the non-NaN keys must come out in CompareValues' order,
// ties broken by the unique id column.
TEST_F(OperatorTest, SortOrdersNaNKeysTotally) {
  const uint64_t seed = testing_util::TestSeed(20261020);
  SCOPED_TRACE(::testing::Message() << "IMCI_TEST_SEED=" << seed);
  std::mt19937_64 rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> keys = {Value{nan}, Value{inf}, Value{-inf},
                                   Value{-0.0}, Value{0.0}, Value{},
                                   Value{1.5},  Value{-2.5}};
  std::vector<Row> rows;
  for (int64_t i = 0; i < 40; ++i) rows.push_back({keys[i % keys.size()], i});
  const std::vector<DataType> types = {DataType::kDouble, DataType::kInt64};
  auto is_nan = [](const Value& v) {
    return !IsNull(v) && std::isnan(NumericValue(v));
  };
  // Row images that tell NaN, -0.0 and 0.0 apart.
  auto bits = [](const std::vector<Row>& out) {
    std::vector<std::tuple<bool, uint64_t, int64_t>> b;
    for (const Row& r : out) {
      const bool null = IsNull(r[0]);
      b.emplace_back(null,
                     null ? 0 : std::bit_cast<uint64_t>(NumericValue(r[0])),
                     AsInt(r[1]));
    }
    return b;
  };
  for (bool desc : {false, true}) {
    std::vector<Row> full;
    for (int64_t limit : {int64_t{-1}, int64_t{10}}) {
      SCOPED_TRACE(::testing::Message()
                   << (desc ? "desc" : "asc") << " limit " << limit);
      std::vector<Row> first;
      for (int shuffle = 0; shuffle < 100; ++shuffle) {
        std::shuffle(rows.begin(), rows.end(), rng);
        std::vector<std::vector<Row>> batches(1 + rng() % 4);
        for (const Row& r : rows) batches[rng() % batches.size()].push_back(r);
        auto sort = std::make_shared<SortOp>(
            Batches(std::move(batches), types),
            std::vector<SortKey>{{0, desc}}, limit);
        std::vector<Row> out;
        ASSERT_TRUE(RunPlan(sort, &ctx_, &out).ok());
        if (shuffle == 0) {
          first = out;
          continue;
        }
        ASSERT_EQ(bits(out), bits(first)) << "shuffle " << shuffle;
      }
      if (limit < 0) {
        ASSERT_EQ(first.size(), rows.size());
        full = first;
      } else {
        ASSERT_EQ(first.size(), static_cast<size_t>(limit));
        EXPECT_EQ(bits(first),
                  bits(std::vector<Row>(full.begin(), full.begin() + limit)));
      }
      // Positive NaN is the largest key: last ascending, first descending.
      const Row* prev = nullptr;
      bool seen_nan = false, seen_other = false;
      for (const Row& r : first) {
        if (is_nan(r[0])) {
          EXPECT_FALSE(desc && seen_other) << "NaN after a number";
          seen_nan = true;
          continue;
        }
        EXPECT_FALSE(!desc && seen_nan) << "number after NaN";
        seen_other = true;
        if (prev != nullptr) {
          const int c = CompareValues((*prev)[0], r[0]);
          EXPECT_TRUE(desc ? c >= 0 : c <= 0) << "keys out of order";
          if (c == 0) {
            EXPECT_LT(AsInt((*prev)[1]), AsInt(r[1])) << "tie out of order";
          }
        }
        prev = &r;
      }
    }
  }
}

// A limit past one output batch (2048 rows) cuts inside the second batch.
TEST_F(OperatorTest, LimitCutsAcrossBatches) {
  std::vector<Row> rows;
  for (int64_t i = 4999; i >= 0; --i) rows.push_back({i});
  auto values = Values(rows, {DataType::kInt64});
  auto sort = std::make_shared<SortOp>(values, std::vector<SortKey>{{0}}, 3000);
  RowSet rs;
  ASSERT_TRUE(sort->Execute(&ctx_, &rs).ok());
  EXPECT_GT(rs.batches.size(), 1u);
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(sort, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 3000u);
  for (int64_t i = 0; i < 3000; ++i) ASSERT_EQ(AsInt(out[i][0]), i);
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

// Compaction re-appends a sparse group's live rows at the compaction VID
// and retires the group; a read view older than that VID must still see
// the old copies there (the scan used to skip retired groups, which lost
// rows from snapshots pinned across a compaction).
TEST(ColumnScanTest, RetiredGroupServesOlderReadViews) {
  auto schema = std::make_shared<Schema>(
      79, "compacted",
      std::vector<ColumnDef>{{"id", DataType::kInt64},
                             {"v", DataType::kInt64}},
      0);
  ColumnIndexOptions options;
  options.row_group_size = 4;
  ColumnIndex index(schema, options);
  for (int64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(index.Insert({id, id * 10}, id + 1).ok());  // vids 1..8
  }
  for (int64_t id = 0; id < 3; ++id) ASSERT_TRUE(index.Delete(id, 9).ok());
  uint32_t moved = 0;
  ASSERT_TRUE(index.CompactGroup(0, 10, &moved).ok());
  ASSERT_EQ(moved, 1u);
  auto ids_at = [&](Vid read_vid) {
    ColumnScanOp scan(&index, {0}, nullptr);
    ExecContext ctx;
    ctx.read_vid = read_vid;
    RowSet rows;
    EXPECT_TRUE(scan.Execute(&ctx, &rows).ok());
    std::vector<int64_t> ids;
    for (const Row& r : ToRows(rows)) ids.push_back(AsInt(r[0]));
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(ids_at(8), (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(ids_at(9), (std::vector<int64_t>{3, 4, 5, 6, 7}));
  EXPECT_EQ(ids_at(10), (std::vector<int64_t>{3, 4, 5, 6, 7}));
  // With the oldest view at VID 0, which sees nothing in the group, the
  // group still serves views at VIDs 1..9: it stays until no view at or
  // above the oldest one can read it.
  EXPECT_EQ(index.ReclaimRetired(0), 0u);
  EXPECT_EQ(ids_at(8), (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(index.ReclaimRetired(10), 1u);
  EXPECT_EQ(ids_at(10), (std::vector<int64_t>{3, 4, 5, 6, 7}));
}

// Each output column of `set`, concatenated over its batches, so lanes can
// be compared whole (the value under a NULL included) across batchings.
std::vector<ColumnVector> Flatten(const RowSet& set) {
  std::vector<ColumnVector> cols;
  for (DataType t : set.types) cols.emplace_back(t);
  for (const Batch& b : set.batches) {
    for (size_t c = 0; c < cols.size(); ++c) {
      const ColumnVector& v = b.cols[c];
      EXPECT_EQ(v.size(), b.rows);
      cols[c].nulls.insert(cols[c].nulls.end(), v.nulls.begin(), v.nulls.end());
      cols[c].ints.insert(cols[c].ints.end(), v.ints.begin(), v.ints.end());
      cols[c].dbls.insert(cols[c].dbls.end(), v.dbls.begin(), v.dbls.end());
      if (v.type == DataType::kString) {
        for (size_t i = 0; i < v.size(); ++i) cols[c].PushStr(v.str(i));
      }
    }
  }
  return cols;
}

// The scan's typed conjunct kernels and late materialization must return
// exactly what the generic filter returns over an unfiltered scan: same
// Status, same rows in the same order, same lanes under NULLs. Random
// predicates cover every kernel shape and comparison, int-vs-double and
// NULL constants, residuals and ill-typed conjuncts, on data with NULLs in
// every type, a partial last group, dropped insert maps, and deletes and
// inserts after the read view, under partition ranges including the one
// that owns NULL keys.
TEST(ColumnScanTest, KernelsMatchGenericFilter) {
  const uint64_t seed = testing_util::TestSeed(20240522);
  SCOPED_TRACE(::testing::Message() << "IMCI_TEST_SEED=" << seed);
  std::mt19937_64 rng(seed);
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };

  auto schema = std::make_shared<Schema>(
      78, "kernels",
      std::vector<ColumnDef>{{"id", DataType::kInt64},
                             {"a", DataType::kInt64, true},
                             {"b", DataType::kInt32, true},
                             {"d", DataType::kDate, true},
                             {"x", DataType::kDouble, true},
                             {"s", DataType::kString, true}},
      0);
  ColumnIndexOptions options;
  options.row_group_size = 16;
  ColumnIndex index(schema, options);
  const int64_t day0 = MakeDate(1995, 1, 1);
  // Two values pass libstdc++'s 15-byte small-string buffer and share a
  // 20-byte prefix.
  const std::vector<std::string> words = {
      "",     "a",      "ab",   "abc", "b", "ba", "AIR", "AIR REG",
      "\xff", "a\xff", "MAIL", "SHIP DELIVER IN PERSON",
      "SHIP DELIVER IN PERSOM"};
  // Constants also draw values no row holds: between two words, past every
  // word, and longer than the longest.
  std::vector<std::string> consts = words;
  for (const char* w : {"aa", "AIR REGULAR", "\xff\xff", "A", "zz",
                        "SHIP DELIVER IN PERSON!", "SHIP DELIVER IN PERSONA"}) {
    consts.push_back(w);
  }
  auto maybe_null = [&](Value v) { return pick(6) == 0 ? Value{} : v; };
  auto make_row = [&](int64_t id) {
    return Row{id,
               maybe_null(int64_t(pick(41) - 20)),
               maybe_null(int64_t(pick(41) - 20)),
               maybe_null(int64_t(day0 + pick(30))),
               maybe_null(0.5 * (pick(41) - 20)),
               maybe_null(words[pick(static_cast<int>(words.size()))])};
  };
  Vid vid = 0;
  int64_t next_id = 0;
  std::vector<int64_t> live;
  std::map<int64_t, Row> model;  // the live rows, by id
  auto insert = [&]() {
    Row row = make_row(next_id);
    ASSERT_TRUE(index.Insert(row, ++vid).ok());
    model[next_id] = std::move(row);
    live.push_back(next_id++);
  };
  auto erase_some = [&](int n) {
    for (int i = 0; i < n && !live.empty(); ++i) {
      const size_t at = pick(static_cast<int>(live.size()));
      ASSERT_TRUE(index.Delete(live[at], ++vid).ok());
      model.erase(live[at]);
      live.erase(live.begin() + at);
    }
  };
  for (int i = 0; i < 16 * 6; ++i) insert();
  erase_some(10);
  index.DropInsertVidMaps(vid);  // every full group: all inserts are old
  for (int i = 0; i < 16 * 5 + 7; ++i) insert();  // ends in a partial group
  erase_some(15);
  const Vid read_vid = vid;
  const std::map<int64_t, Row> visible = model;
  erase_some(20);  // deleted after the read view: still visible
  for (int i = 0; i < 9; ++i) {
    const int64_t id = live[pick(static_cast<int>(live.size()))];
    Row row = make_row(id);
    ASSERT_TRUE(index.Update(row, ++vid).ok());  // new version invisible
  }
  for (int i = 0; i < 12; ++i) insert();  // inserted after the read view

  // Output ordinals: 0 s, 1 a, 2 x, 3 b, 4 d, 5 id.
  const std::vector<int> cols = {5, 1, 4, 2, 3, 0};
  const std::vector<DataType> types = {DataType::kString, DataType::kInt64,
                                       DataType::kDouble, DataType::kInt32,
                                       DataType::kDate,   DataType::kInt64};
  const std::vector<int> int_cols = {1, 3, 4, 5};
  const std::vector<ScanPartition> parts = {
      ScanPartition(),
      {1, false, true, 0, -5},  // open low: owns the NULL keys
      {1, true, true, -4, 6},
      {1, true, false, 0, 7},
  };

  auto col = [&](int c) { return Col(c, types[c]); };
  auto int_const = [&](int c) {
    return ConstInt((c == 4 ? day0 : 0) + pick(45) - (c == 4 ? 5 : 22));
  };
  auto dbl_const = [&]() { return ConstDouble(0.25 * (pick(89) - 44)); };
  auto str_const = [&]() {
    return ConstString(consts[pick(static_cast<int>(consts.size()))]);
  };
  // A constant in column c's lane; int columns sometimes get a DOUBLE.
  auto const_for = [&](int c) {
    if (types[c] == DataType::kString) return str_const();
    if (types[c] == DataType::kDouble || pick(4) == 0) {
      return pick(3) == 0 ? int_const(c) : dbl_const();
    }
    return int_const(c);
  };
  auto value_for = [&](int c) -> Value {
    if (pick(8) == 0) return Value{};
    if (types[c] == DataType::kString) return str_const()->constant;
    if (types[c] == DataType::kDouble) return dbl_const()->constant;
    return int_const(c)->constant;
  };
  const std::vector<ExprKind> ops = {ExprKind::kEq, ExprKind::kNe,
                                     ExprKind::kLt, ExprKind::kLe,
                                     ExprKind::kGt, ExprKind::kGe};
  auto any_op = [&]() { return ops[pick(6)]; };
  std::function<ExprRef(int)> conjunct = [&](int depth) -> ExprRef {
    const int c = pick(6);
    const int ic = int_cols[pick(4)];
    switch (pick(depth > 0 ? 8 : 12)) {
      case 0: case 1:
        return Cmp(any_op(), col(c), const_for(c));
      case 2:
        return Cmp(any_op(), const_for(c), col(c));
      case 3:
        return Cmp(any_op(), col(ic), col(int_cols[pick(4)]));
      case 4: {
        // Sometimes both bounds are one value, so a row can equal each.
        auto lo = const_for(c);
        return Between(col(c), lo, pick(4) == 0 ? lo : const_for(c));
      }
      case 5: {
        std::vector<Value> set;
        for (int n = 1 + pick(4); n > 0; --n) set.push_back(value_for(c));
        return In(col(c), std::move(set));
      }
      case 6: {
        const std::vector<std::string> pats = {
            "a%", "%b", "%a%", "_", "a_c", "%", "AIR%", "", "SHIP%PERSO_",
            "%IN P%"};
        auto p = pats[pick(static_cast<int>(pats.size()))];
        return pick(2) ? Like(col(0), p) : NotLike(col(0), p);
      }
      case 7: {  // a NULL constant of the column's type
        auto null = const_for(c);
        null->constant = Value{};
        return Cmp(any_op(), col(c), null);
      }
      case 8:  // residuals
        return Or(conjunct(1), conjunct(1));
      case 9:
        return pick(2) ? Gt(Add(col(ic), col(int_cols[pick(4)])), int_const(1))
                       : Lt(Mul(col(2), ConstDouble(2)), dbl_const());
      case 10:
        return pick(2) ? IsNull(col(c)) : Not(IsNull(col(c)));
      default:  // ill-typed: fails the whole filter
        switch (pick(3)) {
          case 0: return Eq(col(ic), ConstString("x"));
          case 1: return In(col(0), {Value(int64_t(1))});
          default: return Between(col(0), ConstInt(1), ConstString("b"));
        }
    }
  };

  ExecContext ctx;
  ctx.read_vid = read_vid;
  // The reference itself, an unfiltered scan, returns the rows visible at
  // the read view that fall in the partition.
  for (const ScanPartition& part : parts) {
    std::vector<Row> want;
    for (const auto& [id, row] : visible) {
      const Value& key = row[part.col < 0 ? 0 : part.col];
      if (part.col >= 0 &&
          (IsNull(key) ? part.has_lo
                       : (part.has_lo && AsInt(key) < part.lo) ||
                             (part.has_hi && AsInt(key) > part.hi))) {
        continue;
      }
      Row r;
      for (int c : cols) r.push_back(row[c]);
      want.push_back(std::move(r));
    }
    ColumnScanOp scan(&index, cols, nullptr, part);
    RowSet rows;
    ASSERT_TRUE(scan.Execute(&ctx, &rows).ok());
    std::vector<Row> got = ToRows(rows);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "partition col " << part.col;
  }
  const int iters = testing_util::TestIters(400);
  int nonempty = 0, failed = 0;
  for (int it = 0; it < iters; ++it) {
    ExprRef filter = conjunct(0);
    for (int n = pick(3); n > 0; --n) filter = And(filter, conjunct(0));
    const ScanPartition part = parts[pick(static_cast<int>(parts.size()))];
    SCOPED_TRACE(::testing::Message() << "iteration " << it);
    ColumnScanOp fused(&index, cols, filter, part);
    FilterOp generic(
        std::make_shared<ColumnScanOp>(&index, cols, nullptr, part), filter);
    RowSet got, want;
    const Status got_st = fused.Execute(&ctx, &got);
    const Status want_st = generic.Execute(&ctx, &want);
    ASSERT_EQ(got_st.ToString(), want_st.ToString());
    if (!got_st.ok()) {
      ++failed;
      continue;
    }
    const std::vector<ColumnVector> g = Flatten(got), w = Flatten(want);
    ASSERT_EQ(g.size(), w.size());
    for (size_t c = 0; c < g.size(); ++c) {
      SCOPED_TRACE(::testing::Message() << "column " << c);
      EXPECT_EQ(g[c].type, w[c].type);
      EXPECT_EQ(g[c].nulls, w[c].nulls);
      EXPECT_EQ(g[c].ints, w[c].ints);
      EXPECT_EQ(g[c].dbls, w[c].dbls);
      EXPECT_EQ(g[c].offs, w[c].offs);
      EXPECT_EQ(g[c].bytes, w[c].bytes);
    }
    if (!g[0].nulls.empty()) ++nonempty;
  }
  // The draw must exercise both outcomes, not just empty results.
  EXPECT_GT(nonempty, iters / 4);
  EXPECT_GT(failed, 0);
}

// Semi-join reduction: random join trees over column scans must return the
// rows the same trees return over ValuesOp leaves, which ignore key
// filters. The trees mix inner, left, semi and anti joins, either side run
// first, on one- and two-column keys of INT32, DATE, INT64, DOUBLE and
// STRING columns (an integer keyed against a DOUBLE joins in the DOUBLE
// lane), with grouped aggregates and HAVING filters as build sides,
// computed projections, and sorts with and without a LIMIT between joins.
// The tables hold NULLs, rows deleted before the read view and rows changed
// after it; the largest passes the skip rule's 4096 test rows. Rows are
// compared sorted, the scan trees run at dop 1 and 3.
// A join's first side filters the other side's column scan: an integer key
// set tests a bitmap over [lo, hi] when it is dense, its hash tables when
// it is sparse. Each set's bounds and their neighbours, the int64 extremes
// and NULL must pass exactly the rows the join matches, in both
// directions.
TEST_F(OperatorTest, KeyFilterEdgesOfDenseAndSparseSets) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const Value null;
  struct Case {
    std::vector<int64_t> keys;
    std::vector<Value> probes;
  };
  const std::vector<Case> cases = {
      // Dense sets: lo - 1, lo, a gap, hi, hi + 1.
      {{10, 12, 13, 20},
       {int64_t(9), int64_t(10), int64_t(11), int64_t(12), int64_t(20),
        int64_t(21), null, kMin, kMax}},
      {{kMax - 3, kMax - 1, kMax},
       {kMax - 4, kMax - 3, kMax - 2, kMax, kMin, int64_t(0), null}},
      {{kMin, kMin + 2},
       {kMin, kMin + 1, kMin + 2, kMin + 3, kMax, int64_t(-1), null}},
      {{0}, {int64_t(-1), int64_t(0), int64_t(1), null}},
      // Sparse sets: past 256 values of span per key, and the whole int64
      // range.
      {{0, 1000},
       {int64_t(-1), int64_t(0), int64_t(1), int64_t(999), int64_t(1000),
        int64_t(1001), null}},
      {{kMin, 0, kMax},
       {kMin, kMin + 1, int64_t(-1), int64_t(0), int64_t(1), kMax - 1, kMax,
        null}},
  };
  const std::vector<ColumnDef> defs = {{"id", DataType::kInt64},
                                       {"v", DataType::kInt64, true}};
  ColumnIndexOptions options;
  options.row_group_size = 4;
  int schema_id = 80;
  auto index_of = [&](const std::vector<Value>& values) {
    auto index = std::make_unique<ColumnIndex>(
        std::make_shared<Schema>(schema_id++, "t", defs, 0), options);
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_TRUE(index->Insert({int64_t(i), values[i]}, 1).ok());
    }
    return index;
  };
  ctx_.read_vid = 1;
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "keys from " << c.keys.front());
    const auto build_index =
        index_of(std::vector<Value>(c.keys.begin(), c.keys.end()));
    const auto probe_index = index_of(c.probes);
    auto build = std::make_shared<ColumnScanOp>(build_index.get(),
                                                std::vector<int>{1}, nullptr);
    auto probe = std::make_shared<ColumnScanOp>(
        probe_index.get(), std::vector<int>{0, 1}, nullptr);
    std::vector<Row> inner, semi;
    for (size_t i = 0; i < c.probes.size(); ++i) {
      const Value& v = c.probes[i];
      if (IsNull(v) ||
          std::find(c.keys.begin(), c.keys.end(), AsInt(v)) == c.keys.end()) {
        continue;
      }
      inner.push_back({int64_t(i), v, v});
      semi.push_back({int64_t(i), v});
    }
    for (bool probe_first : {false, true}) {
      for (JoinType type : {JoinType::kInner, JoinType::kSemi}) {
        auto join = std::make_shared<HashJoinOp>(
            build, probe, std::vector<int>{0}, std::vector<int>{1}, type,
            probe_first);
        for (int dop : {1, 3}) {
          ctx_.parallelism = dop;
          std::vector<Row> rows;
          ASSERT_TRUE(RunPlan(join, &ctx_, &rows).ok());
          std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
            return AsInt(x[0]) < AsInt(y[0]);
          });
          EXPECT_EQ(rows, type == JoinType::kInner ? inner : semi)
              << "dop " << dop << " probe_first " << probe_first;
        }
      }
    }
  }
}

TEST_F(OperatorTest, KeyFiltersMatchReference) {
  const uint64_t seed = testing_util::TestSeed(20240707);
  SCOPED_TRACE(::testing::Message() << "IMCI_TEST_SEED=" << seed);
  std::mt19937_64 rng(seed);
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };

  // Column domains: `a` is small, so a build on it can cover most of a
  // table's keys and trip the skip rule; `x` holds every integer of `c`'s
  // domain and the halves between them. Key sets over those are dense and
  // tested through a bitmap; `w` is sparse (multiples of 2^56 from INT64_MIN
  // up, and INT64_MAX - 3), so its key sets are past the bitmap bound and
  // hashed, and their span overflows a signed subtraction. A tree nests at
  // most three projections, so `w` + 1 + 1 + 1 cannot overflow, and it
  // rounds to the same multiple of 2^56 as a double as `w` does: SUMs over
  // `w` stay exact in any order.
  constexpr int kSmall = 60, kWide = 400;
  const std::vector<ColumnDef> defs = {{"id", DataType::kInt64},
                                       {"a", DataType::kInt32, true},
                                       {"d", DataType::kDate, true},
                                       {"c", DataType::kInt64, true},
                                       {"x", DataType::kDouble, true},
                                       {"s", DataType::kString, true},
                                       {"w", DataType::kInt64, true}};
  auto sparse = [&]() -> int64_t {
    switch (pick(8)) {
      case 0: return std::numeric_limits<int64_t>::min();
      case 1: return std::numeric_limits<int64_t>::max() - 3;
      default: {
        const int64_t k = 1 + pick(16);
        return (pick(2) == 0 ? k : -k) * (int64_t{1} << 56);
      }
    }
  };
  auto make_row = [&](int64_t id) {
    auto maybe_null = [&](Value v) { return pick(8) == 0 ? Value{} : v; };
    return Row{id,
               maybe_null(int64_t(pick(kSmall))),
               maybe_null(int64_t(pick(kWide))),
               maybe_null(int64_t(pick(kWide))),
               maybe_null(0.5 * pick(2 * kWide)),
               maybe_null(pick(9) == 0 ? std::string()
                                       : "s" + std::to_string(pick(kWide))),
               maybe_null(sparse())};
  };
  struct Table {
    std::unique_ptr<ColumnIndex> index;
    std::map<int64_t, Row> live;
    std::vector<Row> visible;  // at the read view
  };
  std::vector<Table> tables;
  ColumnIndexOptions options;
  options.row_group_size = 64;
  Vid vid = 0;
  for (int rows : {4600, 300, 120}) {
    Table t;
    t.index = std::make_unique<ColumnIndex>(
        std::make_shared<Schema>(90 + tables.size(), "t", defs, 0), options);
    for (int64_t id = 0; id < rows; ++id) {
      t.live[id] = make_row(id);
      ASSERT_TRUE(t.index->Insert(t.live[id], ++vid).ok());
    }
    for (int i = 0; i < rows / 10; ++i) {
      const int64_t id = pick(rows);
      if (t.live.erase(id) == 1) {
        ASSERT_TRUE(t.index->Delete(id, ++vid).ok());
      }
    }
    tables.push_back(std::move(t));
  }
  tables[0].index->DropInsertVidMaps(vid);
  const Vid read_vid = vid;
  for (Table& t : tables) {
    for (const auto& [id, row] : t.live) t.visible.push_back(row);
    // After the read view: deletes, updates and inserts it must not see.
    for (int i = 0; i < 10; ++i) {
      const int64_t id =
          AsInt(t.visible[pick(static_cast<int>(t.visible.size()))][0]);
      if (t.live.count(id) == 0) continue;
      if (pick(2) == 0) {
        ASSERT_TRUE(t.index->Delete(id, ++vid).ok());
        t.live.erase(id);
      } else {
        ASSERT_TRUE(t.index->Update(make_row(id), ++vid).ok());
      }
    }
    const int64_t next = t.live.empty() ? 0 : t.live.rbegin()->first + 1;
    for (int64_t id = next; id < next + 5; ++id) {
      ASSERT_TRUE(t.index->Insert(make_row(id), ++vid).ok());
    }
  }

  // One generator builds each tree twice from the same seed: over column
  // scans, then over ValuesOp leaves. The big table appears once per tree,
  // so joins stay small.
  std::mt19937_64 trng;
  auto tpick = [&](size_t n) { return static_cast<int>(trng() % n); };
  bool columns = true, big_used = false;
  auto predicate = [&](const std::vector<DataType>& types) -> ExprRef {
    const int c = tpick(types.size());
    const ExprRef col = Col(c, types[c]);
    const bool lt = tpick(2) == 0;
    switch (types[c]) {
      case DataType::kString:
        return lt ? Lt(col, ConstString("s2")) : Ge(col, ConstString("s2"));
      case DataType::kDouble:
        return lt ? Lt(col, ConstDouble(0.5 * tpick(2 * kWide)))
                  : Not(IsNull(col));
      default:
        return lt ? Lt(col, ConstInt(tpick(kWide))) : Gt(col, ConstInt(1));
    }
  };
  auto leaf = [&]() -> PhysOpRef {
    int t = tpick(3);
    if (t == 0 && big_used) t = 1 + tpick(2);
    big_used |= t == 0;
    std::vector<int> cols(defs.size());
    std::iota(cols.begin(), cols.end(), 0);
    std::shuffle(cols.begin(), cols.end(), trng);
    cols.resize(2 + tpick(cols.size() - 1));
    std::vector<DataType> types;
    for (int c : cols) types.push_back(defs[c].type);
    const ExprRef filter = tpick(3) == 0 ? predicate(types) : nullptr;
    if (columns) {
      return std::make_shared<ColumnScanOp>(tables[t].index.get(), cols,
                                            filter);
    }
    std::vector<Row> rows;
    for (const Row& r : tables[t].visible) {
      Row out;
      for (int c : cols) out.push_back(r[c]);
      rows.push_back(std::move(out));
    }
    PhysOpRef values =
        std::make_shared<ValuesOp>(testing_util::ToRowSet(types, rows));
    if (filter == nullptr) return values;
    return std::make_shared<FilterOp>(values, filter);
  };
  auto agg = [&](PhysOpRef in) -> PhysOpRef {
    const std::vector<DataType> t = in->out_types();
    std::vector<int> groups;
    if (tpick(6) != 0) groups.push_back(tpick(t.size()));
    if (tpick(3) == 0) {
      const int g = tpick(t.size());
      if (groups.empty() || g != groups[0]) groups.push_back(g);
    }
    std::vector<AggSpec> aggs;
    for (int n = 1 + tpick(3); n > 0; --n) {
      const int c = tpick(t.size());
      const ExprRef arg = Col(c, t[c]);
      switch (tpick(6)) {
        case 0: aggs.push_back({AggKind::kCountStar, nullptr}); break;
        case 1: aggs.push_back({AggKind::kCount, arg}); break;
        case 2: aggs.push_back({AggKind::kMin, arg}); break;
        case 3: aggs.push_back({AggKind::kMax, arg}); break;
        case 4: aggs.push_back({AggKind::kCountDistinct, arg}); break;
        default:
          aggs.push_back(t[c] == DataType::kString
                             ? AggSpec{AggKind::kMax, arg}
                             : AggSpec{AggKind::kSum, arg});
          break;
      }
    }
    PhysOpRef out = std::make_shared<HashAggOp>(in, groups, aggs);
    if (tpick(3) != 0) return out;
    return std::make_shared<FilterOp>(out, predicate(out->out_types()));
  };
  auto project = [&](PhysOpRef in) -> PhysOpRef {
    const std::vector<DataType> t = in->out_types();
    std::vector<ExprRef> exprs;
    for (int n = 2 + tpick(3); n > 0; --n) {
      const int c = tpick(t.size());
      ExprRef e = Col(c, t[c]);
      if (tpick(3) == 0) {
        if (t[c] == DataType::kString) {
          e = Substr(e, 1, 2);
        } else if (t[c] == DataType::kDouble) {
          e = Mul(e, ConstDouble(2.0));
        } else {
          e = Add(e, ConstInt(1));
        }
      }
      exprs.push_back(std::move(e));
    }
    return std::make_shared<ProjectOp>(in, std::move(exprs));
  };
  auto sort = [&](PhysOpRef in) -> PhysOpRef {
    const int key = tpick(in->out_types().size());
    const bool desc = tpick(2) == 0;
    const int64_t limit = tpick(2) == 0 ? -1 : 1 + tpick(40);
    return std::make_shared<SortOp>(in, std::vector<SortKey>{{key, desc}},
                                    limit);
  };
  const std::vector<JoinType> join_types = {JoinType::kInner, JoinType::kLeft,
                                            JoinType::kSemi, JoinType::kAnti};
  auto join = [&](PhysOpRef probe, PhysOpRef build) -> PhysOpRef {
    const std::vector<DataType> pt = probe->out_types();
    const std::vector<DataType> bt = build->out_types();
    std::vector<int> pk, bk;
    for (int n = tpick(4) == 0 ? 2 : 1; n > 0; --n) {
      const int p = tpick(pt.size());
      std::vector<int> fits;  // strings join strings, numbers numbers
      for (size_t b = 0; b < bt.size(); ++b) {
        if ((bt[b] == DataType::kString) == (pt[p] == DataType::kString)) {
          fits.push_back(static_cast<int>(b));
        }
      }
      if (fits.empty()) continue;
      pk.push_back(p);
      bk.push_back(fits[tpick(fits.size())]);
    }
    if (pk.empty()) return probe;
    const JoinType type = join_types[tpick(join_types.size())];
    return std::make_shared<HashJoinOp>(build, probe, bk, pk, type,
                                        tpick(2) == 0);
  };
  std::function<PhysOpRef(int)> gen = [&](int depth) -> PhysOpRef {
    if (depth == 0) return leaf();
    switch (tpick(8)) {
      case 0: return leaf();
      case 1: return agg(gen(depth - 1));
      case 2: return project(gen(depth - 1));
      case 3: return sort(gen(depth - 1));
      case 4: {
        PhysOpRef in = gen(depth - 1);
        const ExprRef pred = predicate(in->out_types());
        return std::make_shared<FilterOp>(in, pred);
      }
      default: {  // a join; a third of build sides are aggregates
        PhysOpRef probe = gen(depth - 1);
        PhysOpRef build = gen(depth - 1);
        if (tpick(3) == 0) build = agg(build);
        return join(probe, build);
      }
    }
  };
  const auto row_less = [](const Row& x, const Row& y) {
    for (size_t i = 0; i < x.size(); ++i) {
      if (const int c = CompareValues(x[i], y[i]); c != 0) return c < 0;
    }
    return false;
  };
  auto run = [&](const PhysOpRef& plan, int dop) {
    ctx_.parallelism = dop;
    std::vector<Row> rows;
    const Status s = RunPlan(plan, &ctx_, &rows);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::sort(rows.begin(), rows.end(), row_less);
    return rows;
  };

  ctx_.read_vid = read_vid;
  const int iters = testing_util::TestIters(250);
  int joins = 0, nonempty = 0;
  for (int it = 0; it < iters; ++it) {
    SCOPED_TRACE(::testing::Message() << "tree " << it);
    const uint64_t tree_seed = rng();
    PhysOpRef plans[2];
    for (int i = 0; i < 2; ++i) {
      trng.seed(tree_seed);
      columns = i == 0;
      big_used = false;
      plans[i] = gen(3);
    }
    joins += dynamic_cast<HashJoinOp*>(plans[0].get()) != nullptr;
    const std::vector<Row> want = run(plans[1], 1);
    nonempty += !want.empty();
    for (int dop : {1, 3}) {
      ASSERT_EQ(run(plans[0], dop), want) << "dop " << dop;
    }
  }
  EXPECT_GT(joins, iters / 4);
  EXPECT_GT(nonempty, iters / 2);
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
  EXPECT_EQ(b.cols[1].str(2), "s5");
}

}  // namespace
}  // namespace imci
