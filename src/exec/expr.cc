#include "exec/expr.h"

#include <algorithm>
#include <limits>

namespace imci {

namespace {

DataType ArithType(const ExprRef& l, const ExprRef& r) {
  if (l->out_type == DataType::kDouble || r->out_type == DataType::kDouble) {
    return DataType::kDouble;
  }
  return DataType::kInt64;
}

ExprRef NewExpr(ExprKind kind, DataType out) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->out_type = out;
  return e;
}

}  // namespace

ExprRef Col(int ordinal, DataType type) {
  auto e = NewExpr(ExprKind::kCol, type);
  e->col = ordinal;
  return e;
}

ExprRef ConstInt(int64_t v) {
  auto e = NewExpr(ExprKind::kConst, DataType::kInt64);
  e->constant = v;
  return e;
}

ExprRef ConstDouble(double v) {
  auto e = NewExpr(ExprKind::kConst, DataType::kDouble);
  e->constant = v;
  return e;
}

ExprRef ConstString(std::string v) {
  auto e = NewExpr(ExprKind::kConst, DataType::kString);
  e->constant = std::move(v);
  return e;
}

ExprRef ConstDate(int year, int month, int day) {
  auto e = NewExpr(ExprKind::kConst, DataType::kDate);
  e->constant = static_cast<int64_t>(MakeDate(year, month, day));
  return e;
}

ExprRef Cmp(ExprKind op, ExprRef l, ExprRef r) {
  auto e = NewExpr(op, DataType::kInt64);
  e->args = {std::move(l), std::move(r)};
  return e;
}

ExprRef And(ExprRef l, ExprRef r) {
  auto e = NewExpr(ExprKind::kAnd, DataType::kInt64);
  e->args = {std::move(l), std::move(r)};
  return e;
}

ExprRef Or(ExprRef l, ExprRef r) {
  auto e = NewExpr(ExprKind::kOr, DataType::kInt64);
  e->args = {std::move(l), std::move(r)};
  return e;
}

ExprRef Not(ExprRef x) {
  auto e = NewExpr(ExprKind::kNot, DataType::kInt64);
  e->args = {std::move(x)};
  return e;
}

ExprRef Add(ExprRef l, ExprRef r) {
  auto e = NewExpr(ExprKind::kAdd, ArithType(l, r));
  e->args = {std::move(l), std::move(r)};
  return e;
}

ExprRef Sub(ExprRef l, ExprRef r) {
  auto e = NewExpr(ExprKind::kSub, ArithType(l, r));
  e->args = {std::move(l), std::move(r)};
  return e;
}

ExprRef Mul(ExprRef l, ExprRef r) {
  auto e = NewExpr(ExprKind::kMul, ArithType(l, r));
  e->args = {std::move(l), std::move(r)};
  return e;
}

ExprRef Div(ExprRef l, ExprRef r) {
  auto e = NewExpr(ExprKind::kDiv, DataType::kDouble);
  e->args = {std::move(l), std::move(r)};
  return e;
}

ExprRef Like(ExprRef s, std::string pattern) {
  auto e = NewExpr(ExprKind::kLike, DataType::kInt64);
  e->args = {std::move(s)};
  e->pattern = std::move(pattern);
  return e;
}

ExprRef NotLike(ExprRef s, std::string pattern) {
  auto e = NewExpr(ExprKind::kNotLike, DataType::kInt64);
  e->args = {std::move(s)};
  e->pattern = std::move(pattern);
  return e;
}

ExprRef In(ExprRef x, std::vector<Value> set) {
  auto e = NewExpr(ExprKind::kIn, DataType::kInt64);
  e->args = {std::move(x)};
  e->in_set = std::move(set);
  return e;
}

ExprRef Between(ExprRef x, ExprRef lo, ExprRef hi) {
  auto e = NewExpr(ExprKind::kBetween, DataType::kInt64);
  e->args = {std::move(x), std::move(lo), std::move(hi)};
  return e;
}

ExprRef Substr(ExprRef s, int start_1based, int len) {
  auto e = NewExpr(ExprKind::kSubstr, DataType::kString);
  e->args = {std::move(s)};
  e->substr_start = start_1based;
  e->substr_len = len;
  return e;
}

ExprRef Case(ExprRef cond, ExprRef then_e, ExprRef else_e) {
  // An integer branch beside a DOUBLE one widens, as arithmetic does.
  DataType out = then_e->out_type;
  if (out != DataType::kString && else_e->out_type == DataType::kDouble) {
    out = DataType::kDouble;
  }
  auto e = NewExpr(ExprKind::kCase, out);
  e->args = {std::move(cond), std::move(then_e), std::move(else_e)};
  return e;
}

ExprRef Year(ExprRef date) {
  auto e = NewExpr(ExprKind::kYear, DataType::kInt64);
  e->args = {std::move(date)};
  return e;
}

ExprRef IsNull(ExprRef x) {
  auto e = NewExpr(ExprKind::kIsNull, DataType::kInt64);
  e->args = {std::move(x)};
  return e;
}

bool ConstantFits(DataType type, const Value& v) {
  if (IsNull(v)) return true;
  if (type == DataType::kString) return std::holds_alternative<std::string>(v);
  if (type == DataType::kDouble) return !std::holds_alternative<std::string>(v);
  return std::holds_alternative<int64_t>(v);
}

void CollectColumns(const ExprRef& e, std::vector<int>* cols) {
  if (!e) return;
  if (e->kind == ExprKind::kCol) {
    if (std::find(cols->begin(), cols->end(), e->col) == cols->end()) {
      cols->push_back(e->col);
    }
  }
  for (const ExprRef& a : e->args) CollectColumns(a, cols);
}

namespace {

void AppendIntBound(const ExprRef& e, std::vector<IntBound>* out) {
  auto leaf_const = [](const ExprRef& x, int64_t* v) {
    if (x->kind != ExprKind::kConst) return false;
    if (!std::holds_alternative<int64_t>(x->constant)) return false;
    *v = std::get<int64_t>(x->constant);
    return true;
  };
  if (e->kind == ExprKind::kBetween && e->args[0]->kind == ExprKind::kCol &&
      IsIntegerType(e->args[0]->out_type)) {
    int64_t lo, hi;
    if (leaf_const(e->args[1], &lo) && leaf_const(e->args[2], &hi)) {
      out->push_back({e->args[0]->col, true, true, lo, hi});
    }
    return;
  }
  const bool cmp = e->kind == ExprKind::kEq || e->kind == ExprKind::kLt ||
                   e->kind == ExprKind::kLe || e->kind == ExprKind::kGt ||
                   e->kind == ExprKind::kGe;
  if (!cmp || e->args.size() != 2) return;
  if (e->args[0]->kind != ExprKind::kCol ||
      !IsIntegerType(e->args[0]->out_type)) {
    return;
  }
  int64_t v;
  if (!leaf_const(e->args[1], &v)) return;
  IntBound b;
  b.col = e->args[0]->col;
  // col < INT64_MIN and col > INT64_MAX have no representable bound; they
  // emit none (the filter itself still rejects every row).
  switch (e->kind) {
    case ExprKind::kEq: b.has_lo = b.has_hi = true; b.lo = b.hi = v; break;
    case ExprKind::kLt:
      if (v == std::numeric_limits<int64_t>::min()) return;
      b.has_hi = true;
      b.hi = v - 1;
      break;
    case ExprKind::kLe: b.has_hi = true; b.hi = v; break;
    case ExprKind::kGt:
      if (v == std::numeric_limits<int64_t>::max()) return;
      b.has_lo = true;
      b.lo = v + 1;
      break;
    case ExprKind::kGe: b.has_lo = true; b.lo = v; break;
    default: return;
  }
  out->push_back(b);
}

}  // namespace

void ExtractIntBounds(const ExprRef& e, std::vector<IntBound>* out) {
  ForEachConjunct(e, [&](const ExprRef& c) { AppendIntBound(c, out); });
}

bool Expr::LikeMatch(std::string_view s, std::string_view p) {
  // Iterative glob match over % (any run) and _ (any single char).
  size_t si = 0, pi = 0, star_p = std::string::npos, star_s = 0;
  while (si < s.size()) {
    if (pi < p.size() && (p[pi] == '_' || p[pi] == s[si])) {
      ++si;
      ++pi;
    } else if (pi < p.size() && p[pi] == '%') {
      star_p = pi++;
      star_s = si;
    } else if (star_p != std::string::npos) {
      pi = star_p + 1;
      si = ++star_s;
    } else {
      return false;
    }
  }
  while (pi < p.size() && p[pi] == '%') ++pi;
  return pi == p.size();
}

namespace {

bool IsString(const ColumnVector& v) { return v.type == DataType::kString; }

/// Strings compare only with strings; numbers of any width compare with
/// each other.
Status CheckComparable(const ColumnVector& a, const ColumnVector& b) {
  if (IsString(a) == IsString(b)) return Status::OK();
  return Status::InvalidArgument(std::string("cannot compare ") +
                                 DataTypeName(a.type) + " with " +
                                 DataTypeName(b.type));
}

// Null-aware comparison of two evaluated vectors into {0,1,null} booleans.
template <typename CmpFn>
void CompareVectors(const ColumnVector& l, const ColumnVector& r,
                    CmpFn cmp, ColumnVector* out) {
  const size_t n = l.size();
  out->Resize(n);
  const bool str = l.type == DataType::kString;
  if (!str && l.type != DataType::kDouble && r.type != DataType::kDouble) {
    // Dense int64 fast path: the inner loop has no branches on data values
    // and auto-vectorizes.
    const int64_t* a = l.ints.data();
    const int64_t* b = r.ints.data();
    int64_t* o = out->ints.data();
    for (size_t i = 0; i < n; ++i) o[i] = cmp(a[i], b[i]) ? 1 : 0;
  } else if (!str) {
    for (size_t i = 0; i < n; ++i) {
      out->ints[i] = cmp(l.NumericAt(i), r.NumericAt(i)) ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      out->ints[i] = cmp(l.str(i).compare(r.str(i)), 0) ? 1 : 0;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    out->nulls[i] = l.nulls[i] | r.nulls[i];
  }
}

/// `l op r` row by row: on the INT64 lane when the result is INT64 and
/// neither side is DOUBLE (`int_op` reports overflow), else on the DOUBLE
/// lane. An INT64 result outside int64 on a non-NULL row fails the
/// expression, as MySQL's BIGINT does.
template <typename IntOp, typename DblOp>
Status ArithVectors(const ColumnVector& l, const ColumnVector& r,
                    DataType out_t, IntOp int_op, DblOp dbl_op,
                    ColumnVector* out) {
  if (IsString(l) || IsString(r)) {
    return Status::InvalidArgument("arithmetic on a string");
  }
  const size_t n = l.size();
  const bool ints = out_t == DataType::kInt64 &&
                    l.type != DataType::kDouble && r.type != DataType::kDouble;
  out->type = ints ? DataType::kInt64 : DataType::kDouble;
  out->Resize(n);
  for (size_t i = 0; i < n; ++i) out->nulls[i] = l.nulls[i] | r.nulls[i];
  if (ints) {
    const int64_t* a = l.ints.data();
    const int64_t* b = r.ints.data();
    const uint8_t* nulls = out->nulls.data();
    int64_t* o = out->ints.data();
    bool overflow = false;
    for (size_t i = 0; i < n; ++i) {
      overflow |= int_op(a[i], b[i], &o[i]) & !nulls[i];
    }
    if (overflow) {
      return Status::InvalidArgument("BIGINT value is out of range");
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      out->dbls[i] = dbl_op(l.NumericAt(i), r.NumericAt(i));
    }
  }
  return Status::OK();
}

}  // namespace

Status Expr::Eval(const Batch& batch, ColumnVector* out) const {
  switch (kind) {
    case ExprKind::kCol: {
      if (col < 0 || col >= batch.num_cols()) {
        return Status::InvalidArgument("column ordinal out of range");
      }
      *out = batch.cols[col];  // copy; scans avoid this via pushdown
      return Status::OK();
    }
    case ExprKind::kConst: {
      if (!ConstantFits(out_type, constant)) {
        return Status::InvalidArgument("constant does not fit its type");
      }
      ColumnVector v(out_type);
      v.Reserve(batch.rows);
      for (size_t i = 0; i < batch.rows; ++i) v.AppendValue(constant);
      *out = std::move(v);
      return Status::OK();
    }
    case ExprKind::kEq: case ExprKind::kNe: case ExprKind::kLt:
    case ExprKind::kLe: case ExprKind::kGt: case ExprKind::kGe: {
      ColumnVector l, r;
      IMCI_RETURN_NOT_OK(args[0]->Eval(batch, &l));
      IMCI_RETURN_NOT_OK(args[1]->Eval(batch, &r));
      IMCI_RETURN_NOT_OK(CheckComparable(l, r));
      out->type = DataType::kInt64;
      switch (kind) {
        case ExprKind::kEq:
          CompareVectors(l, r, [](auto a, auto b) { return a == b; }, out);
          break;
        case ExprKind::kNe:
          CompareVectors(l, r, [](auto a, auto b) { return a != b; }, out);
          break;
        case ExprKind::kLt:
          CompareVectors(l, r, [](auto a, auto b) { return a < b; }, out);
          break;
        case ExprKind::kLe:
          CompareVectors(l, r, [](auto a, auto b) { return a <= b; }, out);
          break;
        case ExprKind::kGt:
          CompareVectors(l, r, [](auto a, auto b) { return a > b; }, out);
          break;
        default:
          CompareVectors(l, r, [](auto a, auto b) { return a >= b; }, out);
          break;
      }
      return Status::OK();
    }
    case ExprKind::kAnd: case ExprKind::kOr: {
      ColumnVector l, r;
      IMCI_RETURN_NOT_OK(args[0]->Eval(batch, &l));
      IMCI_RETURN_NOT_OK(args[1]->Eval(batch, &r));
      const size_t n = l.size();
      out->type = DataType::kInt64;
      out->Resize(n);
      const bool is_and = kind == ExprKind::kAnd;
      for (size_t i = 0; i < n; ++i) {
        const bool ln = l.nulls[i], rn = r.nulls[i];
        const bool lv = !ln && l.ints[i] != 0, rv = !rn && r.ints[i] != 0;
        if (is_and) {
          if ((!ln && !lv) || (!rn && !rv)) {
            out->ints[i] = 0;
          } else if (ln || rn) {
            out->nulls[i] = 1;
          } else {
            out->ints[i] = 1;
          }
        } else {
          if (lv || rv) {
            out->ints[i] = 1;
          } else if (ln || rn) {
            out->nulls[i] = 1;
          } else {
            out->ints[i] = 0;
          }
        }
      }
      return Status::OK();
    }
    case ExprKind::kNot: {
      ColumnVector v;
      IMCI_RETURN_NOT_OK(args[0]->Eval(batch, &v));
      out->type = DataType::kInt64;
      out->Resize(v.size());
      for (size_t i = 0; i < v.size(); ++i) {
        out->nulls[i] = v.nulls[i];
        out->ints[i] = v.nulls[i] ? 0 : (v.ints[i] == 0 ? 1 : 0);
      }
      return Status::OK();
    }
    case ExprKind::kAdd: case ExprKind::kSub: case ExprKind::kMul: {
      ColumnVector l, r;
      IMCI_RETURN_NOT_OK(args[0]->Eval(batch, &l));
      IMCI_RETURN_NOT_OK(args[1]->Eval(batch, &r));
      switch (kind) {
        case ExprKind::kAdd:
          return ArithVectors(
              l, r, out_type,
              [](int64_t a, int64_t b, int64_t* o) {
                return __builtin_add_overflow(a, b, o);
              },
              [](double a, double b) { return a + b; }, out);
        case ExprKind::kSub:
          return ArithVectors(
              l, r, out_type,
              [](int64_t a, int64_t b, int64_t* o) {
                return __builtin_sub_overflow(a, b, o);
              },
              [](double a, double b) { return a - b; }, out);
        default:
          return ArithVectors(
              l, r, out_type,
              [](int64_t a, int64_t b, int64_t* o) {
                return __builtin_mul_overflow(a, b, o);
              },
              [](double a, double b) { return a * b; }, out);
      }
    }
    case ExprKind::kDiv: {
      ColumnVector l, r;
      IMCI_RETURN_NOT_OK(args[0]->Eval(batch, &l));
      IMCI_RETURN_NOT_OK(args[1]->Eval(batch, &r));
      const size_t n = l.size();
      out->type = DataType::kDouble;
      out->Resize(n);
      for (size_t i = 0; i < n; ++i) {
        const double d = r.NumericAt(i);
        if (l.nulls[i] || r.nulls[i] || d == 0.0) {
          out->nulls[i] = 1;
        } else {
          out->dbls[i] = l.NumericAt(i) / d;
        }
      }
      return Status::OK();
    }
    case ExprKind::kLike: case ExprKind::kNotLike: {
      ColumnVector v;
      IMCI_RETURN_NOT_OK(args[0]->Eval(batch, &v));
      if (!IsString(v)) return Status::InvalidArgument("LIKE on non-string");
      const size_t n = v.size();
      out->type = DataType::kInt64;
      out->Resize(n);
      const bool neg = kind == ExprKind::kNotLike;
      for (size_t i = 0; i < n; ++i) {
        if (v.nulls[i]) {
          out->nulls[i] = 1;
        } else {
          bool m = LikeMatch(v.str(i), pattern);
          out->ints[i] = (m != neg) ? 1 : 0;
        }
      }
      return Status::OK();
    }
    case ExprKind::kIn: {
      ColumnVector v;
      IMCI_RETURN_NOT_OK(args[0]->Eval(batch, &v));
      for (const Value& c : in_set) {
        if (!IsNull(c) &&
            std::holds_alternative<std::string>(c) != IsString(v)) {
          return Status::InvalidArgument("IN list type does not match");
        }
      }
      const size_t n = v.size();
      out->type = DataType::kInt64;
      out->Resize(n);
      if (IsString(v)) {
        std::vector<std::string_view> set;  // NULL equals nothing
        for (const Value& c : in_set) {
          if (!IsNull(c)) set.push_back(AsString(c));
        }
        for (size_t i = 0; i < n; ++i) {
          out->nulls[i] = v.nulls[i];
          const std::string_view x = v.str(i);
          out->ints[i] = !v.nulls[i] && std::find(set.begin(), set.end(),
                                                  x) != set.end();
        }
        return Status::OK();
      }
      for (size_t i = 0; i < n; ++i) {
        if (v.nulls[i]) {
          out->nulls[i] = 1;
          continue;
        }
        Value x = v.GetValue(i);
        bool found = false;
        for (const Value& c : in_set) {
          if (CompareValues(x, c) == 0) {
            found = true;
            break;
          }
        }
        out->ints[i] = found ? 1 : 0;
      }
      return Status::OK();
    }
    case ExprKind::kBetween: {
      ColumnVector v, lo, hi;
      IMCI_RETURN_NOT_OK(args[0]->Eval(batch, &v));
      IMCI_RETURN_NOT_OK(args[1]->Eval(batch, &lo));
      IMCI_RETURN_NOT_OK(args[2]->Eval(batch, &hi));
      IMCI_RETURN_NOT_OK(CheckComparable(v, lo));
      IMCI_RETURN_NOT_OK(CheckComparable(v, hi));
      const size_t n = v.size();
      out->type = DataType::kInt64;
      out->Resize(n);
      if (v.type != DataType::kString && v.type != DataType::kDouble &&
          lo.type != DataType::kDouble && hi.type != DataType::kDouble) {
        const int64_t* a = v.ints.data();
        const int64_t* b = lo.ints.data();
        const int64_t* c = hi.ints.data();
        int64_t* o = out->ints.data();
        for (size_t i = 0; i < n; ++i) {
          o[i] = (a[i] >= b[i] && a[i] <= c[i]) ? 1 : 0;
        }
      } else if (v.type == DataType::kString) {
        for (size_t i = 0; i < n; ++i) {
          const std::string_view x = v.str(i);
          out->ints[i] = (x >= lo.str(i) && x <= hi.str(i)) ? 1 : 0;
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          double x = v.NumericAt(i);
          out->ints[i] =
              (x >= lo.NumericAt(i) && x <= hi.NumericAt(i)) ? 1 : 0;
        }
      }
      for (size_t i = 0; i < n; ++i) {
        out->nulls[i] = v.nulls[i] | lo.nulls[i] | hi.nulls[i];
      }
      return Status::OK();
    }
    case ExprKind::kSubstr: {
      ColumnVector v;
      IMCI_RETURN_NOT_OK(args[0]->Eval(batch, &v));
      if (!IsString(v)) return Status::InvalidArgument("SUBSTR on non-string");
      const size_t n = v.size();
      *out = ColumnVector(DataType::kString);
      out->Reserve(n);
      const size_t start = substr_start > 0 ? substr_start - 1 : 0;
      for (size_t i = 0; i < n; ++i) {
        const std::string_view s = v.nulls[i] ? "" : v.str(i);
        out->nulls.push_back(v.nulls[i]);
        out->PushStr(start < s.size() ? s.substr(start, substr_len) : "");
      }
      return Status::OK();
    }
    case ExprKind::kCase: {
      ColumnVector c, t, e;
      IMCI_RETURN_NOT_OK(args[0]->Eval(batch, &c));
      IMCI_RETURN_NOT_OK(args[1]->Eval(batch, &t));
      IMCI_RETURN_NOT_OK(args[2]->Eval(batch, &e));
      if (IsString(t) != IsString(e)) {
        return Status::InvalidArgument("CASE mixes string and non-string");
      }
      const size_t n = c.size();
      // The branches' lanes, not out_type, decide how rows are read.
      const bool dbl =
          t.type == DataType::kDouble || e.type == DataType::kDouble;
      *out = ColumnVector(dbl ? DataType::kDouble : t.type);
      out->Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const bool cond = !c.nulls[i] && c.ints[i] != 0;
        const ColumnVector& src = cond ? t : e;
        out->nulls.push_back(src.nulls[i]);
        if (out->type == DataType::kDouble) {
          out->dbls.push_back(src.nulls[i] ? 0.0 : src.NumericAt(i));
        } else if (out->type == DataType::kString) {
          out->PushStr(src.str(i));
        } else {
          out->ints.push_back(src.ints[i]);
        }
      }
      return Status::OK();
    }
    case ExprKind::kYear: {
      ColumnVector v;
      IMCI_RETURN_NOT_OK(args[0]->Eval(batch, &v));
      const size_t n = v.size();
      out->type = DataType::kInt64;
      out->Resize(n);
      for (size_t i = 0; i < n; ++i) {
        out->nulls[i] = v.nulls[i];
        if (!v.nulls[i]) {
          out->ints[i] = DateYear(static_cast<int32_t>(v.ints[i]));
        }
      }
      return Status::OK();
    }
    case ExprKind::kIsNull: {
      ColumnVector v;
      IMCI_RETURN_NOT_OK(args[0]->Eval(batch, &v));
      const size_t n = v.size();
      out->type = DataType::kInt64;
      out->Resize(n);
      for (size_t i = 0; i < n; ++i) out->ints[i] = v.nulls[i] ? 1 : 0;
      return Status::OK();
    }
  }
  return Status::NotSupported("expr kind");
}

Status Expr::EvalMask(const Batch& batch, std::vector<uint8_t>* mask) const {
  ColumnVector v;
  IMCI_RETURN_NOT_OK(Eval(batch, &v));
  mask->resize(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    (*mask)[i] = (!v.nulls[i] && v.ints[i] != 0) ? 1 : 0;
  }
  return Status::OK();
}

}  // namespace imci
