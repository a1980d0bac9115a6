#ifndef POLARDB_IMCI_EXEC_EXPR_H_
#define POLARDB_IMCI_EXEC_EXPR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "exec/vector.h"

namespace imci {

/// Vectorized expression evaluation framework (§6.3): expressions are
/// decoupled from operators and evaluate a whole batch at a time. The
/// numeric comparison/arithmetic kernels are tight loops over dense lanes,
/// which GCC/Clang auto-vectorize (the stand-in for the paper's hand-tuned
/// AVX-512 kernels). Boolean results are int64 {0,1} with SQL-style
/// three-valued NULL propagation.
class Expr;
using ExprRef = std::shared_ptr<Expr>;

enum class ExprKind : uint8_t {
  kCol, kConst,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr, kNot,
  kAdd, kSub, kMul, kDiv,
  kLike, kNotLike, kIn, kBetween, kSubstr, kCase, kYear, kIsNull,
};

class Expr {
 public:
  ExprKind kind;
  DataType out_type = DataType::kInt64;
  int col = -1;                 // kCol
  Value constant;               // kConst
  std::vector<ExprRef> args;    // children
  std::string pattern;          // kLike / kNotLike
  std::vector<Value> in_set;    // kIn
  int substr_start = 0, substr_len = 0;

  /// Evaluates over `batch`, producing one value per row.
  Status Eval(const Batch& batch, ColumnVector* out) const;

  /// Convenience: evaluate as a selection mask (1 = keep). NULL -> 0.
  Status EvalMask(const Batch& batch, std::vector<uint8_t>* mask) const;

  /// SQL LIKE with % and _ wildcards.
  static bool LikeMatch(std::string_view s, std::string_view pattern);
};

// --- Builders ---------------------------------------------------------------

ExprRef Col(int ordinal, DataType type);
ExprRef ConstInt(int64_t v);
ExprRef ConstDouble(double v);
ExprRef ConstString(std::string v);
ExprRef ConstDate(int year, int month, int day);

ExprRef Cmp(ExprKind op, ExprRef l, ExprRef r);
inline ExprRef Eq(ExprRef l, ExprRef r) { return Cmp(ExprKind::kEq, l, r); }
inline ExprRef Ne(ExprRef l, ExprRef r) { return Cmp(ExprKind::kNe, l, r); }
inline ExprRef Lt(ExprRef l, ExprRef r) { return Cmp(ExprKind::kLt, l, r); }
inline ExprRef Le(ExprRef l, ExprRef r) { return Cmp(ExprKind::kLe, l, r); }
inline ExprRef Gt(ExprRef l, ExprRef r) { return Cmp(ExprKind::kGt, l, r); }
inline ExprRef Ge(ExprRef l, ExprRef r) { return Cmp(ExprKind::kGe, l, r); }

ExprRef And(ExprRef l, ExprRef r);
ExprRef Or(ExprRef l, ExprRef r);
ExprRef Not(ExprRef e);

ExprRef Add(ExprRef l, ExprRef r);
ExprRef Sub(ExprRef l, ExprRef r);
ExprRef Mul(ExprRef l, ExprRef r);
ExprRef Div(ExprRef l, ExprRef r);

ExprRef Like(ExprRef s, std::string pattern);
ExprRef NotLike(ExprRef s, std::string pattern);
ExprRef In(ExprRef e, std::vector<Value> set);
ExprRef Between(ExprRef e, ExprRef lo, ExprRef hi);
ExprRef Substr(ExprRef s, int start_1based, int len);
/// CASE WHEN cond THEN a ELSE b END
ExprRef Case(ExprRef cond, ExprRef then_e, ExprRef else_e);
ExprRef Year(ExprRef date);
ExprRef IsNull(ExprRef e);

/// Whether a constant of `type` can hold `v`: NULL fits every type, and an
/// integer widens to DOUBLE.
bool ConstantFits(DataType type, const Value& v);

/// Collects the column ordinals referenced by `e` into `cols` (dedup'd).
void CollectColumns(const ExprRef& e, std::vector<int>* cols);

/// Calls `fn` on each conjunct of the top-level AND tree of `e`, left to
/// right. The one walker behind pruning bounds and the scan's kernels.
template <typename Fn>
void ForEachConjunct(const ExprRef& e, Fn&& fn) {
  if (!e) return;
  if (e->kind == ExprKind::kAnd) {
    ForEachConjunct(e->args[0], fn);
    ForEachConjunct(e->args[1], fn);
    return;
  }
  fn(e);
}

/// A conjunctive integer range bound `lo <= col <= hi` recovered from an
/// expression. Shared by Pack pruning (scan) and the cost model / row-engine
/// access-path selection (optimizer).
struct IntBound {
  int col = -1;
  bool has_lo = false, has_hi = false;
  int64_t lo = 0, hi = 0;
};

/// Extracts bounds from the top-level conjunction of `e` (col CMP const and
/// col BETWEEN const AND const patterns on integer-family columns).
void ExtractIntBounds(const ExprRef& e, std::vector<IntBound>* out);

}  // namespace imci

#endif  // POLARDB_IMCI_EXEC_EXPR_H_
