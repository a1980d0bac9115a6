#include "exec/operators.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <optional>
#include <queue>
#include <span>
#include <string_view>

namespace imci {

namespace {

/// Moves the kept rows of a string lane to its front, bytes included.
void CompactStrings(const std::vector<uint8_t>& mask, size_t rows,
                    ColumnVector* col) {
  if (rows == 0) return;
  uint32_t* offs = col->offs.data();
  char* bytes = col->bytes.data();
  uint32_t end = 0;
  size_t kept = 0;
  for (size_t i = 0; i < rows; ++i) {
    if (!mask[i]) continue;
    // offs[kept + 1] <= offs[i + 1] is rewritten only after row i is read.
    const uint32_t begin = offs[i], len = offs[i + 1] - begin;
    std::memmove(bytes + end, bytes + begin, len);
    end += len;
    offs[++kept] = end;
  }
  col->offs.resize(kept + 1);
  col->bytes.resize(end);
}

}  // namespace

void CompactBatch(Batch* batch, const std::vector<uint8_t>& mask) {
  size_t kept = 0;
  for (size_t i = 0; i < batch->rows; ++i) {
    if (!mask[i]) continue;
    if (kept != i) {
      for (auto& col : batch->cols) {
        col.nulls[kept] = col.nulls[i];
        switch (col.type) {
          case DataType::kDouble: col.dbls[kept] = col.dbls[i]; break;
          case DataType::kString: break;  // CompactStrings below
          default: col.ints[kept] = col.ints[i]; break;
        }
      }
    }
    ++kept;
  }
  for (auto& col : batch->cols) {
    col.nulls.resize(kept);
    switch (col.type) {
      case DataType::kDouble: col.dbls.resize(kept); break;
      case DataType::kString: CompactStrings(mask, batch->rows, &col); break;
      default: col.ints.resize(kept); break;
    }
  }
  batch->rows = kept;
}

namespace {

/// Keeps the offsets in `sel` for which `keep(offset)` holds, in order,
/// compacting in place without a branch on the outcome.
template <typename Keep>
void Refine(std::vector<uint32_t>* sel, Keep keep) {
  uint32_t* s = sel->data();
  size_t n = 0;
  for (size_t i = 0, e = sel->size(); i < e; ++i) {
    const uint32_t off = s[i];
    s[n] = off;
    n += keep(off) ? 1 : 0;
  }
  sel->resize(n);
}

/// Calls `fn` with the comparison functor of `op` (kEq..kGe).
template <typename Fn>
void WithCmp(ExprKind op, Fn fn) {
  switch (op) {
    case ExprKind::kEq: fn(std::equal_to<>()); break;
    case ExprKind::kNe: fn(std::not_equal_to<>()); break;
    case ExprKind::kLt: fn(std::less<>()); break;
    case ExprKind::kLe: fn(std::less_equal<>()); break;
    case ExprKind::kGt: fn(std::greater<>()); break;
    default: fn(std::greater_equal<>()); break;
  }
}

/// Calls `fn(at, consts)`: `at(offset)` reads `pack` in the lane of `args`
/// (an integer pack widens to DOUBLE, as Expr compares it), `consts` is
/// that lane of `args`.
template <typename Fn>
void WithLane(const RowGroup& g, int pack, const ColumnVector& args, Fn fn) {
  if (args.type == DataType::kString) {
    std::vector<std::string_view> consts(args.size());
    for (size_t i = 0; i < consts.size(); ++i) consts[i] = args.str(i);
    fn([&g, pack](uint32_t o) { return g.str_at(pack, o); }, consts);
  } else if (args.type != DataType::kDouble) {
    const int64_t* v = g.int_data(pack);
    fn([v](uint32_t o) { return v[o]; }, args.ints);
  } else if (g.pack_type(pack) == DataType::kDouble) {
    const double* v = g.double_data(pack);
    fn([v](uint32_t o) { return v[o]; }, args.dbls);
  } else {
    const int64_t* v = g.int_data(pack);
    fn([v](uint32_t o) { return static_cast<double>(v[o]); }, args.dbls);
  }
}

/// IN's equality: CompareValues returns 0, so a NaN matches anything.
template <typename T>
bool InEqual(const T& a, const T& b) { return a == b; }
bool InEqual(double a, double b) { return !(a < b) && !(a > b); }

void RunKernel(const RowGroup& g, ExprKind op, int pack, int rhs_pack,
               const ColumnVector& args, std::vector<uint32_t>* sel) {
  const uint8_t* nulls = g.null_data(pack);
  switch (op) {
    case ExprKind::kBetween:
      WithLane(g, pack, args, [&](auto at, const auto& c) {
        Refine(sel, [&](uint32_t o) {
          return (nulls[o] == 0) & (at(o) >= c[0]) & (at(o) <= c[1]);
        });
      });
      return;
    case ExprKind::kIn:
      WithLane(g, pack, args, [&](auto at, const auto& set) {
        Refine(sel, [&](uint32_t o) {
          if (nulls[o]) return false;
          const auto x = at(o);
          for (const auto& c : set) {
            if (InEqual(x, c)) return true;
          }
          return false;
        });
      });
      return;
    case ExprKind::kLike: case ExprKind::kNotLike: {
      const std::string_view pattern = args.str(0);
      const bool neg = op == ExprKind::kNotLike;
      Refine(sel, [&](uint32_t o) {
        return !nulls[o] && Expr::LikeMatch(g.str_at(pack, o), pattern) != neg;
      });
      return;
    }
    default:
      break;
  }
  if (rhs_pack >= 0) {
    const int64_t* a = g.int_data(pack);
    const int64_t* b = g.int_data(rhs_pack);
    const uint8_t* b_nulls = g.null_data(rhs_pack);
    WithCmp(op, [&](auto cmp) {
      Refine(sel, [&](uint32_t o) {
        return ((nulls[o] | b_nulls[o]) == 0) & cmp(a[o], b[o]);
      });
    });
    return;
  }
  WithLane(g, pack, args, [&](auto at, const auto& c) {
    const auto& v = c[0];
    WithCmp(op, [&](auto cmp) {
      Refine(sel, [&](uint32_t o) { return (nulls[o] == 0) & cmp(at(o), v); });
    });
  });
}

/// Replaces `dst`'s rows with `pack`'s rows at `offs`. A NULL row's lane
/// holds 0, 0.0 or "", as ColumnVector::AppendNull writes.
void Gather(const RowGroup& g, int pack, std::span<const uint32_t> offs,
            ColumnVector* dst) {
  const size_t n = offs.size();
  const uint8_t* nulls = g.null_data(pack);
  dst->nulls.resize(n);
  for (size_t i = 0; i < n; ++i) dst->nulls[i] = nulls[offs[i]];
  switch (dst->type) {
    case DataType::kDouble: {
      const double* v = g.double_data(pack);
      dst->dbls.resize(n);
      for (size_t i = 0; i < n; ++i) {
        dst->dbls[i] = nulls[offs[i]] ? 0.0 : v[offs[i]];
      }
      break;
    }
    case DataType::kString:
      dst->ClearStrings();
      for (size_t i = 0; i < n; ++i) {
        dst->PushStr(nulls[offs[i]] ? std::string_view()
                                    : g.str_at(pack, offs[i]));
      }
      break;
    default: {
      const int64_t* v = g.int_data(pack);
      dst->ints.resize(n);
      for (size_t i = 0; i < n; ++i) {
        dst->ints[i] = nulls[offs[i]] ? 0 : v[offs[i]];
      }
      break;
    }
  }
}

/// A row a row gather copies: row `row` of `col`, or NULL when `col` is
/// null.
struct RowRef {
  const ColumnVector* col;
  uint32_t row;
};

template <typename T, typename Pick>
void GatherLane(size_t n, Pick pick, std::vector<T> ColumnVector::*lane,
                ColumnVector* dst) {
  std::vector<T>& out = dst->*lane;
  out.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const RowRef r = pick(i);
    const bool null = r.col == nullptr || r.col->nulls[r.row];
    dst->nulls[i] = null;
    if (null) {
      out[i] = T();
    } else {
      out[i] = (r.col->*lane)[r.row];
    }
  }
}

/// GatherLane for the string lane: copies byte ranges, in row order.
template <typename Pick>
void GatherStrings(size_t n, Pick pick, ColumnVector* dst) {
  dst->ClearStrings();
  for (size_t i = 0; i < n; ++i) {
    const RowRef r = pick(i);
    const bool null = r.col == nullptr || r.col->nulls[r.row];
    dst->nulls[i] = null;
    dst->PushStr(null ? std::string_view() : r.col->str(r.row));
  }
}

/// Replaces `dst`'s rows with `n` rows, row i a copy of the RowRef
/// `pick(i)`, in one typed loop. A NULL row's lane holds 0, 0.0 or "", as
/// Gather and ColumnVector::AppendNull write.
template <typename Pick>
void GatherRows(size_t n, Pick pick, ColumnVector* dst) {
  dst->nulls.resize(n);
  switch (dst->type) {
    case DataType::kDouble:
      GatherLane(n, pick, &ColumnVector::dbls, dst);
      break;
    case DataType::kString:
      GatherStrings(n, pick, dst);
      break;
    default:
      GatherLane(n, pick, &ColumnVector::ints, dst);
      break;
  }
}

/// The lane Expr compares a `t` value in: integer types share INT64.
DataType LaneOf(DataType t) {
  return IsIntegerType(t) ? DataType::kInt64 : t;
}

/// Fills `args` with `consts` in the lane a `col_type` column compares with
/// them: STRING, DOUBLE when either side is DOUBLE, else INT64. False when
/// a constant is NULL or ill-typed, or a string meets a number.
bool ConstArgs(DataType col_type, std::initializer_list<ExprRef> consts,
               ColumnVector* args) {
  DataType lane = LaneOf(col_type);
  for (const ExprRef& c : consts) {
    if (c->kind != ExprKind::kConst || IsNull(c->constant) ||
        !ConstantFits(c->out_type, c->constant)) {
      return false;
    }
    const DataType t = LaneOf(c->out_type);
    if ((t == DataType::kString) != (lane == DataType::kString)) return false;
    if (t == DataType::kDouble) lane = t;
  }
  *args = ColumnVector(lane);
  for (const ExprRef& c : consts) args->AppendValue(c->constant);
  return true;
}

/// Fills `args` with IN's non-NULL set when every element fits the
/// column's lane (numbers of any width for a DOUBLE column).
bool InArgs(DataType col_type, const std::vector<Value>& set,
            ColumnVector* args) {
  *args = ColumnVector(LaneOf(col_type));
  for (const Value& v : set) {
    if (IsNull(v)) continue;  // never equal to anything
    if (!ConstantFits(args->type, v)) return false;
    args->AppendValue(v);
  }
  return true;
}

/// Expression errors are type errors and do not depend on the rows, so
/// evaluating `e` over an empty batch of `types` surfaces them even when no
/// row reaches it.
Status TypeCheck(const Expr& e, const std::vector<DataType>& types) {
  std::vector<uint8_t> mask;
  return e.EvalMask(Batch::Make(types), &mask);
}

/// The filters of `in` whose every column `child_col` maps to a child
/// column (it returns -1 for none), with their columns so mapped, in order.
template <typename ChildCol>
KeyFilters MapFilters(const KeyFilters& in, ChildCol child_col) {
  KeyFilters out;
  for (const KeyFilter& f : in) {
    KeyFilter mapped{f.keys, {}};
    for (int c : f.cols) {
      const int m = child_col(c);
      if (m < 0) break;
      mapped.cols.push_back(m);
    }
    if (mapped.cols.size() == f.cols.size()) out.push_back(std::move(mapped));
  }
  return out;
}

}  // namespace

ColumnScanOp::ColumnScanOp(ColumnIndex* index, std::vector<int> cols,
                           ExprRef filter, ScanPartition part)
    : index_(index), cols_(std::move(cols)), part_(part) {
  packs_.reserve(cols_.size());
  for (int c : cols_) {
    packs_.push_back(index_->PackForColumn(c));
    out_types_.push_back(index_->schema().column(c).type);
  }
  if (part_.col >= 0) part_pack_ = index_->PackForColumn(part_.col);
  ExtractIntBounds(filter, &bounds_);
  std::erase_if(bounds_, [&](const IntBound& b) {
    return b.col < 0 || b.col >= static_cast<int>(packs_.size());
  });
  ForEachConjunct(filter, [&](const ExprRef& c) {
    Kernel k;
    if (ToKernel(c, &k)) {
      kernels_.push_back(std::move(k));
      return;
    }
    Residual r{c, {}};
    CollectColumns(c, &r.cols);
    // An ordinal outside the output fails in Expr::Eval; gather none for it.
    std::erase_if(r.cols, [&](int col) {
      return col < 0 || col >= static_cast<int>(cols_.size());
    });
    residuals_.push_back(std::move(r));
  });
}

bool ColumnScanOp::ToKernel(const ExprRef& e, Kernel* k) const {
  auto col_of = [&](const ExprRef& x) {
    const bool ok = x->kind == ExprKind::kCol && x->col >= 0 &&
                    x->col < static_cast<int>(cols_.size());
    return ok ? x->col : -1;
  };
  const int c = e->args.empty() ? -1 : col_of(e->args[0]);
  if (c < 0) return false;
  const DataType t = out_types_[c];
  k->op = e->kind;
  k->pack = packs_[c];
  switch (e->kind) {
    case ExprKind::kEq: case ExprKind::kNe: case ExprKind::kLt:
    case ExprKind::kLe: case ExprKind::kGt: case ExprKind::kGe: {
      if (e->args.size() != 2) return false;
      if (const int c2 = col_of(e->args[1]); c2 >= 0) {
        k->rhs_pack = packs_[c2];
        return IsIntegerType(t) && IsIntegerType(out_types_[c2]);
      }
      return ConstArgs(t, {e->args[1]}, &k->args);
    }
    case ExprKind::kBetween:
      return e->args.size() == 3 &&
             ConstArgs(t, {e->args[1], e->args[2]}, &k->args);
    case ExprKind::kIn:
      return e->args.size() == 1 && InArgs(t, e->in_set, &k->args);
    case ExprKind::kLike: case ExprKind::kNotLike:
      if (e->args.size() != 1 || t != DataType::kString) return false;
      k->args = ColumnVector(DataType::kString);
      k->args.AppendString(e->pattern);
      return true;
    default:
      return false;
  }
}

bool ColumnScanOp::GroupPrunable(const RowGroup& g) const {
  for (const IntBound& b : bounds_) {
    int64_t min = 0, max = 0;
    if (!g.IntRange(packs_[b.col], &min, &max)) continue;
    // Disjoint ranges -> no row in this group can satisfy the conjunct.
    if (b.has_lo && max < b.lo) return true;
    if (b.has_hi && min > b.hi) return true;
  }
  return false;
}

bool ColumnScanOp::PartitionSkipsGroup(const RowGroup& g) const {
  if (part_pack_ < 0) return false;
  int64_t min = 0, max = 0;
  if (!g.IntRange(part_pack_, &min, &max)) return false;
  if (part_.has_lo && max < part_.lo) return true;
  // The open-low range also owns the group's NULL keys.
  if (part_.has_hi && min > part_.hi) {
    return part_.has_lo || g.NullCount(part_pack_) == 0;
  }
  return false;
}

void ColumnScanOp::SelectVisible(const RowGroup& g, uint32_t used,
                                 Vid read_vid,
                                 std::vector<uint32_t>* sel) const {
  // A dropped insert map means every insert is older than any read view.
  const bool all_inserted = g.insert_vids_dropped();
  const std::atomic<Vid>* ins = g.raw_insert_vids();
  const std::atomic<Vid>* del = g.raw_delete_vids();
  const uint8_t* part_nulls =
      part_pack_ >= 0 ? g.null_data(part_pack_) : nullptr;
  const int64_t* part_keys = part_pack_ >= 0 ? g.int_data(part_pack_) : nullptr;
  sel->clear();
  sel->reserve(used);
  for (uint32_t off = 0; off < used; ++off) {
    if (!all_inserted) {
      const Vid iv = ins[off].load(std::memory_order_acquire);
      if (iv == kInvalidVid || iv > read_vid) continue;
    }
    if (del[off].load(std::memory_order_acquire) <= read_vid) continue;
    if (part_keys != nullptr) {
      // Fragment partition check: a NULL key belongs to the first (open-low)
      // range, so NULL-keyed rows are neither lost nor duplicated.
      if (part_nulls[off]) {
        if (part_.has_lo) continue;
      } else {
        const int64_t pv = part_keys[off];
        if (part_.has_lo && pv < part_.lo) continue;
        if (part_.has_hi && pv > part_.hi) continue;
      }
    }
    sel->push_back(off);
  }
}

Status ColumnScanOp::ApplyResidual(const Residual& r, const RowGroup& g,
                                   std::vector<uint32_t>* sel) const {
  Batch batch = Batch::Make(out_types_);
  std::vector<uint8_t> mask;
  size_t kept = 0;
  for (size_t begin = 0; begin < sel->size();
       begin += Batch::kDefaultCapacity) {
    const size_t n = std::min(Batch::kDefaultCapacity, sel->size() - begin);
    const std::span<const uint32_t> offs(sel->data() + begin, n);
    for (int c : r.cols) Gather(g, packs_[c], offs, &batch.cols[c]);
    batch.rows = n;
    IMCI_RETURN_NOT_OK(r.expr->EvalMask(batch, &mask));
    for (size_t i = 0; i < n; ++i) {
      (*sel)[kept] = offs[i];
      kept += mask[i];
    }
  }
  sel->resize(kept);
  return Status::OK();
}

Status ColumnScanOp::ScanGroup(const RowGroup& g, uint32_t used, Vid read_vid,
                               const KeyFilters& filters, RowSet* out) const {
  std::vector<uint32_t> sel;
  SelectVisible(g, used, read_vid, &sel);
  for (const Kernel& k : kernels_) {
    if (sel.empty()) return Status::OK();
    RunKernel(g, k.op, k.pack, k.rhs_pack, k.args, &sel);
  }
  for (const Residual& r : residuals_) {
    if (sel.empty()) return Status::OK();
    IMCI_RETURN_NOT_OK(ApplyResidual(r, g, &sel));
  }
  for (const KeyFilter& f : filters) {
    if (sel.empty()) return Status::OK();
    ApplyKeyFilter(f, g, &sel);
  }
  // Late materialization: each output column is copied for the survivors
  // only, one column at a time.
  for (size_t begin = 0; begin < sel.size();
       begin += Batch::kDefaultCapacity) {
    const size_t n = std::min(Batch::kDefaultCapacity, sel.size() - begin);
    const std::span<const uint32_t> offs(sel.data() + begin, n);
    Batch batch = Batch::Make(out_types_);
    for (size_t c = 0; c < packs_.size(); ++c) {
      Gather(g, packs_[c], offs, &batch.cols[c]);
    }
    batch.rows = n;
    out->batches.push_back(std::move(batch));
  }
  return Status::OK();
}

Status ColumnScanOp::ExecuteFiltered(ExecContext* ctx,
                                     const KeyFilters& filters, RowSet* out) {
  out->types = out_types_;
  if (part_.col >= 0 && part_pack_ < 0) {
    return Status::NotSupported("partition column has no pack");
  }
  for (const Residual& r : residuals_) {
    IMCI_RETURN_NOT_OK(TypeCheck(*r.expr, out_types_));
  }
  const size_t ngroups = index_->num_groups();
  const Vid read_vid = ctx->read_vid;
  const int workers = std::max(1, ctx->parallelism);
  std::vector<RowSet> partials(workers);
  std::atomic<size_t> next_group{0};
  Status statuses[64];
  const int w = std::min(workers, 64);
  const size_t morsel =
      static_cast<size_t>(std::max(1, ctx->morsel_row_groups));
  // Morsel-driven parallel scan: workers claim morsels — runs of consecutive
  // row groups ("Data Packs in a non-interleaved manner") — from a shared
  // dispatch counter. A fast worker claims more morsels than a slow one, so
  // skew balances without a static assignment, and the pool's deque stealing
  // covers workers blocked in other queries.
  ParallelFor(ctx->pool, w, [&](int wi) {
    for (;;) {
      const size_t start = next_group.fetch_add(morsel,
                                                std::memory_order_relaxed);
      if (start >= ngroups) return;
      const size_t end = std::min(ngroups, start + morsel);
      for (size_t gid = start; gid < end; ++gid) {
        // A retired group still holds the pre-compaction copies a read view
        // older than the compaction VID sees; visibility alone decides.
        auto g = index_->group(gid);
        if (!g) continue;
        const uint32_t used = index_->GroupUsed(gid);
        if (used == 0) continue;
        // Partition skip is correctness-driven, not gated on the pruning
        // ablation toggle, and not counted in the pruning metrics.
        if (PartitionSkipsGroup(*g)) continue;
        if (ctx->pruning_enabled && GroupPrunable(*g)) {
          groups_pruned_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        groups_scanned_.fetch_add(1, std::memory_order_relaxed);
        Status s = ScanGroup(*g, used, read_vid, filters, &partials[wi]);
        if (!s.ok()) {
          statuses[wi] = s;
          return;
        }
      }
    }
  });
  for (int i = 0; i < w; ++i) IMCI_RETURN_NOT_OK(statuses[i]);
  for (RowSet& p : partials) {
    for (Batch& b : p.batches) out->batches.push_back(std::move(b));
  }
  return Status::OK();
}

RowScanOp::RowScanOp(const RowTable* table, std::vector<int> cols,
                     ExprRef filter, IndexHint hint)
    : table_(table), cols_(std::move(cols)), filter_(std::move(filter)),
      hint_(hint) {
  for (int c : cols_) out_types_.push_back(table_->schema().column(c).type);
}

void RowScanOp::AppendRow(const Row& row, Batch* batch) const {
  for (size_t c = 0; c < cols_.size(); ++c) {
    batch->cols[c].AppendValue(row[cols_[c]]);
  }
  batch->rows++;
}

Status RowScanOp::Execute(ExecContext* ctx, RowSet* out) {
  // The scan reads the commit prefix at read_vid: the RW's read view, or the
  // applied VID an RO pinned for the plan.
  const Vid read_vid = ctx->read_vid;
  out->types = out_types_;
  Batch batch = Batch::Make(out_types_);
  Status inner;
  auto flush = [&]() -> Status {
    if (batch.rows == 0) return Status::OK();
    if (filter_) {
      std::vector<uint8_t> mask;
      IMCI_RETURN_NOT_OK(filter_->EvalMask(batch, &mask));
      CompactBatch(&batch, mask);
    }
    if (batch.rows > 0) out->batches.push_back(std::move(batch));
    batch = Batch::Make(out_types_);
    return Status::OK();
  };
  auto visit = [&](int64_t /*pk*/, const Row& row) {
    AppendRow(row, &batch);
    // Small batches: the row engine is a row-at-a-time interpreter with
    // early materialization; large vectors would misrepresent it (§2.1).
    if (batch.rows >= 128) {
      inner = flush();
      if (!inner.ok()) return false;
    }
    return true;
  };
  if (hint_.col < 0) {
    IMCI_RETURN_NOT_OK(table_->SnapshotScan(read_vid, visit));
  } else if (hint_.col == table_->schema().pk_col()) {
    IMCI_RETURN_NOT_OK(
        table_->SnapshotScanRange(read_vid, hint_.lo, hint_.hi, visit));
  } else {
    std::vector<int64_t> pks;
    IMCI_RETURN_NOT_OK(table_->SnapshotIndexLookupRange(
        read_vid, hint_.col, hint_.lo, hint_.hi, &pks));
    Row row;
    for (int64_t pk : pks) {
      Status got = table_->SnapshotGet(read_vid, pk, &row);
      if (got.IsNotFound()) continue;  // row vanished between lookup and get
      IMCI_RETURN_NOT_OK(got);
      if (!visit(pk, row)) break;
    }
  }
  IMCI_RETURN_NOT_OK(inner);
  return flush();
}

FilterOp::FilterOp(PhysOpRef child, ExprRef pred)
    : child_(std::move(child)), pred_(std::move(pred)) {
  out_types_ = child_->out_types();
}

Status FilterOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->Execute(ctx, &in));
  IMCI_RETURN_NOT_OK(TypeCheck(*pred_, out_types_));
  out->types = out_types_;
  for (Batch& b : in.batches) {
    std::vector<uint8_t> mask;
    IMCI_RETURN_NOT_OK(pred_->EvalMask(b, &mask));
    CompactBatch(&b, mask);
    if (b.rows > 0) out->batches.push_back(std::move(b));
  }
  return Status::OK();
}

ProjectOp::ProjectOp(PhysOpRef child, std::vector<ExprRef> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  for (const ExprRef& e : exprs_) out_types_.push_back(e->out_type);
}

Status ProjectOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->Execute(ctx, &in));
  out->types = out_types_;
  out->batches.resize(in.batches.size());
  const int n = static_cast<int>(in.batches.size());
  std::vector<Status> statuses(n);
  ParallelFor(ctx->pool, n, [&](int i) {
    Batch& src = in.batches[i];
    Batch dst;
    dst.rows = src.rows;
    dst.cols.reserve(exprs_.size());
    for (const ExprRef& e : exprs_) {
      ColumnVector v(e->out_type);
      Status s = e->Eval(src, &v);
      if (!s.ok()) {
        statuses[i] = std::move(s);
        return;
      }
      dst.cols.push_back(std::move(v));
    }
    out->batches[i] = std::move(dst);
  });
  for (const Status& s : statuses) IMCI_RETURN_NOT_OK(s);
  return Status::OK();
}

namespace {

/// Exact key image of a double: its bit pattern, with -0.0 folded into 0.0
/// (the two compare equal). Distinct values never share an image.
uint64_t DoubleKeyBits(double d) {
  return std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d);
}

/// A total order on DoubleKeyBits images that agrees with < on numbers:
/// flip every bit of a negative, the sign bit of anything else.
uint64_t OrderBits(int64_t image) {
  const uint64_t u = static_cast<uint64_t>(image);
  return u >> 63 ? ~u : u | (uint64_t{1} << 63);
}

/// Key words of a string of `len` bytes: the length, then the bytes packed
/// into zero-padded words.
size_t StringWords(size_t len) { return 1 + (len + 7) / 8; }

std::string_view StringOf(const int64_t* image) {
  return {reinterpret_cast<const char*>(image + 1),
          static_cast<size_t>(image[0])};
}

/// Words of the key image of non-NULL row `r` of `v` in `lane`.
size_t ImageWords(const ColumnVector& v, size_t r, DataType lane) {
  return lane == DataType::kString ? StringWords(v.str(r).size()) : 1;
}

/// Writes the key image of non-NULL row `r` of `v` in `lane` (LaneOf of the
/// key type, or DOUBLE for an integer keyed against a double) to the
/// ImageWords zeroed words at `out`: an integer's value, a number's
/// DoubleKeyBits, a string's length and packed bytes.
void WriteImage(const ColumnVector& v, size_t r, DataType lane,
                int64_t* out) {
  if (lane == DataType::kDouble) {
    *out = static_cast<int64_t>(DoubleKeyBits(v.NumericAt(r)));
  } else if (lane == DataType::kString) {
    const std::string_view s = v.str(r);
    *out = static_cast<int64_t>(s.size());
    std::memcpy(out + 1, s.data(), s.size());
  } else {
    *out = v.ints[r];
  }
}

/// Null-mask words of a key over `ncols` columns.
size_t MaskWords(size_t ncols) { return (ncols + 63) / 64; }

bool NullAt(const int64_t* key, size_t c) {
  return (static_cast<uint64_t>(key[c / 64]) >> (c % 64)) & 1;
}

/// A key image to sort and the id of what it keys (a group, a row).
/// `prefix` is KeyOrder::Prefix(key), so most comparisons read only the
/// ref.
struct KeyRef {
  uint64_t prefix;
  const int64_t* key;
  uint32_t id;
};

/// The engine's one order over values, on key images in `lanes`: column by
/// column, NULL first, integers as int64, doubles by OrderBits (so NaN
/// cannot break a sort), strings bytewise — CompareValues' order wherever
/// that is total — each column reversed where `desc` is set. As a
/// comparator it orders KeyRefs by prefix, and by the full keys only when
/// the prefixes tie. It views its caller's vectors, so std::sort's copies
/// of it are cheap.
class KeyOrder {
 public:
  KeyOrder(std::span<const DataType> lanes, std::span<const uint8_t> desc)
      : lanes_(lanes), desc_(desc) {}

  KeyRef Ref(const int64_t* key, uint32_t id) const {
    return {Prefix(key), key, id};
  }

  bool operator()(const KeyRef& x, const KeyRef& y) const {
    if (x.prefix != y.prefix) return x.prefix < y.prefix;
    return Less(x.key, y.key);
  }

 private:
  /// Equal columns have equal images, so one cursor walks both keys.
  bool Less(const int64_t* x, const int64_t* y) const {
    size_t i = MaskWords(lanes_.size());
    for (size_t c = 0; c < lanes_.size(); ++c) {
      const bool desc = desc_[c] != 0;
      const bool xn = NullAt(x, c);
      if (xn != NullAt(y, c)) return xn != desc;
      if (xn) continue;
      if (lanes_[c] == DataType::kString) {
        const std::string_view a = StringOf(x + i), b = StringOf(y + i);
        if (a != b) return (a < b) != desc;
        i += StringWords(a.size());
        continue;
      }
      if (x[i] != y[i]) {
        const bool less = lanes_[c] == DataType::kDouble
                              ? OrderBits(x[i]) < OrderBits(y[i])
                              : x[i] < y[i];
        return less != desc;
      }
      ++i;
    }
    return false;
  }

  /// A 64-bit prefix of `key`'s first column whose order never disagrees
  /// with Less (prefixes may tie): 0 for NULL, an integer with its sign bit
  /// flipped, a double's OrderBits, a string's first 8 bytes big-endian
  /// (zero-padded); complemented when the column is descending.
  uint64_t Prefix(const int64_t* key) const {
    if (lanes_.empty()) return 0;
    const uint64_t flip = desc_[0] ? ~uint64_t{0} : 0;
    if (NullAt(key, 0)) return flip;
    const int64_t* v = key + MaskWords(lanes_.size());
    switch (lanes_[0]) {
      case DataType::kDouble:
        return OrderBits(v[0]) ^ flip;
      case DataType::kString: {
        if (v[0] == 0) return flip;  // "": no byte words
        const uint64_t bytes = static_cast<uint64_t>(v[1]);
        return (std::endian::native == std::endian::little
                    ? __builtin_bswap64(bytes)
                    : bytes) ^
               flip;
      }
      default:
        return static_cast<uint64_t>(v[0]) ^ (uint64_t{1} << 63) ^ flip;
    }
  }

  std::span<const DataType> lanes_;
  std::span<const uint8_t> desc_;
};

/// Appends the group values of key image `key` in `lanes` to the leading
/// columns of `out`.
void AppendKey(const int64_t* key, const std::vector<DataType>& lanes,
               Batch* out) {
  size_t i = MaskWords(lanes.size());
  for (size_t c = 0; c < lanes.size(); ++c) {
    ColumnVector& col = out->cols[c];
    if (NullAt(key, c)) {
      col.AppendNull();
    } else if (lanes[c] == DataType::kString) {
      const std::string_view s = StringOf(key + i);
      col.AppendString(s);
      i += StringWords(s.size());
    } else if (lanes[c] == DataType::kDouble) {
      col.AppendDouble(std::bit_cast<double>(key[i++]));
    } else {
      col.AppendInt(key[i++]);
    }
  }
}

/// Number of exchange partitions for a given worker count: the smallest
/// power of two >= workers (power of two so the partition of a hash is a
/// mask, and >= workers so every worker owns at least one partition).
int ExchangePartitions(int workers) {
  int p = 1;
  while (p < workers) p <<= 1;
  return p;
}

/// murmur3's 64-bit finalizer: a bijection whose every output bit depends
/// on every input bit, so slot and partition bits can both be sliced from
/// one hash.
uint64_t Fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

uint64_t HashWords(const int64_t* key, size_t width) {
  uint64_t h = static_cast<uint64_t>(width);
  for (size_t i = 0; i < width; ++i) {
    h = Fmix64(h * 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(key[i]));
  }
  return h;
}

/// Exchange partition of a key: the top hash bits, disjoint from the low
/// bits KeyTable indexes slots with (P <= 64, so at most 6 bits).
uint32_t PartitionOf(uint64_t hash, uint32_t pmask) {
  return static_cast<uint32_t>(hash >> 58) & pmask;
}

/// The key images of a batch's rows over some key columns, the one key
/// format of join and aggregation: row r's key is the words [start[r],
/// start[r+1]) — MaskWords null-mask words (bit c set when key column c is
/// NULL), then the image of each non-NULL column in its lane — and, after
/// Hash(), hashes[r] is its HashWords (a sort needs no hashes). A whole
/// batch is imaged column by column before any table is probed, so the
/// probe loop stays short enough for the CPU to overlap the cache misses of
/// consecutive rows. A batch with no string and no NULL in its key columns
/// is imaged fixed-width, straight from the lanes (FixedWidthKeys).
struct BatchKeys {
  std::vector<int64_t> words;
  std::vector<size_t> start;
  std::vector<uint64_t> hashes;
  std::vector<size_t> next;  // EncodeKeys' write cursor per row

  const int64_t* key(size_t r) const { return words.data() + start[r]; }
  size_t width(size_t r) const { return start[r + 1] - start[r]; }
  void Hash() {
    const size_t n = start.size() - 1;
    hashes.resize(n);
    for (size_t r = 0; r < n; ++r) hashes[r] = HashWords(key(r), width(r));
  }
  /// Whether rows r and q have equal images (and so equal keys).
  bool SameKey(size_t r, size_t q) const {
    return hashes[r] == hashes[q] && width(r) == width(q) &&
           std::equal(key(r), key(r) + width(r), key(q));
  }
  /// Whether row r's mask is all zero: no key column is NULL.
  bool NoNulls(size_t r, size_t mask_words) const {
    const int64_t* k = key(r);
    return std::all_of(k, k + mask_words, [](int64_t w) { return w == 0; });
  }
};

/// Whether every key image of `b` over `cols` is one word per column: no
/// key column is a string or holds a NULL.
bool FixedWidthKeys(const Batch& b, const std::vector<int>& cols,
                    const std::vector<DataType>& lanes) {
  for (size_t c = 0; c < cols.size(); ++c) {
    if (lanes[c] == DataType::kString) return false;
    const uint8_t* nulls = b.cols[cols[c]].nulls.data();
    if (std::any_of(nulls, nulls + b.rows, [](uint8_t x) { return x != 0; })) {
      return false;
    }
  }
  return true;
}

void EncodeKeys(const Batch& b, const std::vector<int>& cols,
                const std::vector<DataType>& lanes, BatchKeys* out) {
  const size_t n = b.rows, mask_words = MaskWords(cols.size());
  std::vector<size_t>& start = out->start;
  if (FixedWidthKeys(b, cols, lanes)) {
    // Row r's image is words [r * width, (r + 1) * width): zero mask words,
    // then each column's word, as WriteImage writes it.
    const size_t width = mask_words + cols.size();
    start.resize(n + 1);
    for (size_t r = 0; r <= n; ++r) start[r] = r * width;
    out->words.assign(n * width, 0);
    for (size_t c = 0; c < cols.size(); ++c) {
      const ColumnVector& v = b.cols[cols[c]];
      int64_t* w = out->words.data() + mask_words + c;
      if (lanes[c] == DataType::kDouble) {
        for (size_t r = 0; r < n; ++r) {
          w[r * width] = static_cast<int64_t>(DoubleKeyBits(v.NumericAt(r)));
        }
      } else {
        for (size_t r = 0; r < n; ++r) w[r * width] = v.ints[r];
      }
    }
    return;
  }
  // Row widths go to start[r + 1]; the prefix sum turns them into starts.
  start.assign(n + 1, mask_words);
  start[0] = 0;
  for (size_t c = 0; c < cols.size(); ++c) {
    const ColumnVector& v = b.cols[cols[c]];
    for (size_t r = 0; r < n; ++r) {
      if (!v.nulls[r]) start[r + 1] += ImageWords(v, r, lanes[c]);
    }
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  out->words.assign(start[n], 0);
  int64_t* words = out->words.data();
  std::vector<size_t>& next = out->next;
  next.resize(n);
  for (size_t r = 0; r < n; ++r) next[r] = start[r] + mask_words;
  for (size_t c = 0; c < cols.size(); ++c) {
    const ColumnVector& v = b.cols[cols[c]];
    const DataType lane = lanes[c];
    const int64_t bit = static_cast<int64_t>(uint64_t{1} << (c % 64));
    for (size_t r = 0; r < n; ++r) {
      if (v.nulls[r]) {
        words[start[r] + c / 64] |= bit;
      } else {
        WriteImage(v, r, lane, words + next[r]);
        next[r] += ImageWords(v, r, lane);
      }
    }
  }
}

/// Open-addressing (linear probing) map from a key of int64 words to a
/// dense id, assigned in insertion order. Keys of any width sit back to back
/// in one word arena, each behind a header word holding its id and width; a
/// slot holds its key's arena offset, so a probe reads only the slot and
/// the key. Keys and hashes are stored once per id, so a key doubles as a
/// group's output values and its hash as its exchange partition.
class KeyTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  uint32_t size() const { return static_cast<uint32_t>(hashes_.size()); }
  const int64_t* key(uint32_t id) const {
    return words_.data() + starts_[id] + 1;
  }
  size_t width(uint32_t id) const { return words_[starts_[id]] & kWidthMask; }
  uint64_t hash(uint32_t id) const { return hashes_[id]; }

  void Reserve(size_t n) {
    starts_.reserve(n);
    hashes_.reserve(n);
    if (n * 2 > slots_.size()) Rehash(n * 2);
  }

  /// Starts loading the slot `hash` probes first, for a probe a few rows
  /// later.
  void Prefetch(uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[hash & mask_]);
  }

  uint32_t Find(const int64_t* key, size_t width, uint64_t hash) const {
    if (slots_.empty()) return kNone;
    const uint64_t at = slots_[Probe(key, width, hash)];
    return at == kEmpty ? kNone : static_cast<uint32_t>(words_[at] >> 32);
  }

  /// Returns the id of `key`, inserting it if absent (`*inserted` says
  /// which).
  uint32_t FindOrInsert(const int64_t* key, size_t width, uint64_t hash,
                        bool* inserted) {
    if ((hashes_.size() + 1) * 2 > slots_.size()) {
      Rehash(std::max<size_t>(16, slots_.size() * 2));
    }
    uint64_t& at = slots_[Probe(key, width, hash)];
    *inserted = at == kEmpty;
    if (!*inserted) return static_cast<uint32_t>(words_[at] >> 32);
    const uint32_t id = size();
    at = words_.size();
    starts_.push_back(at);
    words_.push_back(static_cast<int64_t>(uint64_t{id} << 32 | width));
    words_.insert(words_.end(), key, key + width);
    hashes_.push_back(hash);
    return id;
  }

 private:
  static constexpr uint64_t kEmpty = UINT64_MAX;
  static constexpr uint64_t kWidthMask = UINT32_MAX;

  /// The slot holding `key`, or the empty slot where it belongs.
  size_t Probe(const int64_t* key, size_t width, uint64_t hash) const {
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const uint64_t at = slots_[i];
      if (at == kEmpty ||
          ((words_[at] & kWidthMask) == width &&
           std::equal(key, key + width, words_.data() + at + 1))) {
        return i;
      }
    }
  }

  void Rehash(size_t min_slots) {
    size_t cap = 16;
    while (cap < min_slots) cap <<= 1;
    slots_.assign(cap, kEmpty);
    mask_ = cap - 1;
    for (uint32_t id = 0; id < size(); ++id) {
      size_t i = hashes_[id] & mask_;
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = starts_[id];
    }
  }

  size_t mask_ = 0;
  std::vector<uint64_t> slots_;  // arena offset per slot, kEmpty when empty
  std::vector<int64_t> words_;   // per id: header (id << 32 | width), key
  std::vector<uint64_t> starts_;  // arena offset per id
  std::vector<uint64_t> hashes_;
};

/// How many rows ahead a probe loop prefetches its slot.
constexpr uint32_t kPrefetchRows = 8;

using JoinRef = std::pair<uint32_t, uint32_t>;  // build (batch, row)

/// The build batch of a JoinRef that pads a left join's unmatched row.
constexpr uint32_t kNoMatch = UINT32_MAX;

/// One build partition of the join: key -> id, and the matches of id i in
/// CSR form, refs[offsets[i], offsets[i+1]) in build (batch, row) order.
/// For a single INT64-lane key, [lo, hi] is the range of its keys. A dense
/// build (BuildDense) is one partition with an empty KeyTable whose id k is
/// key lo + k.
struct JoinPartition {
  KeyTable keys;
  std::vector<uint32_t> offsets;
  std::vector<JoinRef> refs;
  int64_t lo = INT64_MAX, hi = INT64_MIN;
};

/// Whether a key of `lanes` is one INT64-lane column: the scans test it
/// with a lane kernel, against the range of the set's values.
bool IsIntKey(const std::vector<DataType>& lanes) {
  return lanes.size() == 1 && lanes[0] == DataType::kInt64;
}

/// The non-NULL values of one integer key column over an operator's input:
/// [lo, lo + span], held by `rows` rows. Unsigned, so INT64_MIN..INT64_MAX
/// cannot overflow.
struct IntRange {
  int64_t lo = 0;
  uint64_t span = 0;
  uint64_t rows = 0;

  int64_t hi() const {
    return static_cast<int64_t>(static_cast<uint64_t>(lo) + span);
  }
  /// The slot of value `v` counted from lo; above span when v is outside.
  uint64_t Offset(int64_t v) const {
    return static_cast<uint64_t>(v) - static_cast<uint64_t>(lo);
  }
};

/// The range of column `col` over `set`, or nullopt when a batch holds the
/// column in a non-integer lane or every value is NULL.
std::optional<IntRange> KeyRange(const RowSet& set, int col) {
  int64_t lo = INT64_MAX, hi = INT64_MIN;
  uint64_t rows = 0;
  for (const Batch& b : set.batches) {
    const ColumnVector& v = b.cols[col];
    if (!IsIntegerType(v.type)) return std::nullopt;
    for (size_t r = 0; r < b.rows; ++r) {
      const bool valued = v.nulls[r] == 0;
      lo = std::min(lo, valued ? v.ints[r] : INT64_MAX);
      hi = std::max(hi, valued ? v.ints[r] : INT64_MIN);
      rows += valued;
    }
  }
  if (rows == 0) return std::nullopt;
  return IntRange{lo, static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo),
                  rows};
}

/// Whether a key over `span` + 1 values takes the dense path: its span + 2
/// slots (one per value, and a NULL group or an end offset) are at most
/// `budget` and under 2^26.
bool DenseFits(uint64_t span, uint64_t budget) {
  constexpr uint64_t kMaxDenseSlots = uint64_t{1} << 26;
  return span < kMaxDenseSlots - 2 && span + 2 <= budget;
}

/// The range of a join build side's single integer key column `col` when
/// it is dense: at most 4 slots per non-NULL row, as a 4-byte offset per slot
/// costs no more than the 16 bytes per row a hashed build spends at least.
std::optional<IntRange> DenseJoinRange(const RowSet& set, int col) {
  std::optional<IntRange> r = KeyRange(set, col);
  if (r && !DenseFits(r->span, 4 * r->rows)) r.reset();
  return r;
}

void SetBit(std::vector<uint64_t>* bits, uint64_t i) {
  (*bits)[i / 64] |= uint64_t{1} << (i % 64);
}

/// The join's dense build over `set`'s integer key column `col`, whose
/// values span `r`: a counting sort into `t`'s CSR form, slot k holding the
/// rows keyed r.lo + k in build (batch, row) order. NULL keys never match
/// and are left out.
void BuildDense(const RowSet& set, int col, const IntRange& r,
                JoinPartition* t) {
  // Slot k's rows count at offsets[k + 2], so after the prefix sum
  // offsets[k + 1] is slot k's start; the scatter advances it to slot k's
  // end, which is slot k + 1's start, and the last word goes.
  std::vector<uint32_t>& offsets = t->offsets;
  offsets.assign(r.span + 3, 0);
  for (const Batch& b : set.batches) {
    const ColumnVector& v = b.cols[col];
    for (uint32_t ri = 0; ri < b.rows; ++ri) {
      if (!v.nulls[ri]) offsets[r.Offset(v.ints[ri]) + 2]++;
    }
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  t->refs.resize(r.rows);
  for (uint32_t bi = 0; bi < set.batches.size(); ++bi) {
    const ColumnVector& v = set.batches[bi].cols[col];
    for (uint32_t ri = 0; ri < set.batches[bi].rows; ++ri) {
      if (!v.nulls[ri]) t->refs[offsets[r.Offset(v.ints[ri]) + 1]++] = {bi, ri};
    }
  }
  offsets.pop_back();
  t->lo = r.lo;
  t->hi = r.hi();
}

/// The join's build phase over `set`'s keys in `cols`, partition-parallel
/// with an exchange step, into P = tables->size() partitions. Stage 1
/// (scatter) runs per batch: image its keys in `lanes`, hash them, and
/// route each row to the partition its hash picks. The images of batch bi
/// are left in (*images)[bi] when `images` is not null. Stage 2
/// (merge) runs per partition: partition p assembles its own table from
/// every batch's p-bucket, walking batches in index order so refs land in
/// the exact (batch, row) order the serial build would have produced —
/// match emission order, and therefore results, are identical to
/// parallelism=1. A joining key has no NULL, so its mask words are zero:
/// tables keep only the words after them.
void BuildPartitions(ExecContext* ctx, const RowSet& set,
                     const std::vector<int>& cols,
                     const std::vector<DataType>& lanes,
                     std::vector<BatchKeys>* images,
                     std::vector<JoinPartition>* tables) {
  std::vector<BatchKeys> own;
  if (images == nullptr) images = &own;
  const int P = static_cast<int>(tables->size());
  const uint32_t pmask = static_cast<uint32_t>(P - 1);
  const int nbatches = static_cast<int>(set.batches.size());
  const size_t mask_words = MaskWords(lanes.size());
  const bool int_key = IsIntKey(lanes);
  images->resize(nbatches);
  // scatter[bi][p]: the rows of batch bi routed to partition p.
  std::vector<std::vector<std::vector<uint32_t>>> scatter(nbatches);
  ParallelFor(ctx->pool, nbatches, [&](int bi) {
    BatchKeys& keys = (*images)[bi];
    EncodeKeys(set.batches[bi], cols, lanes, &keys);
    keys.Hash();
    auto& parts = scatter[bi];
    parts.resize(P);
    for (uint32_t ri = 0; ri < set.batches[bi].rows; ++ri) {
      if (!keys.NoNulls(ri, mask_words)) continue;  // NULL never matches
      parts[PartitionOf(keys.hashes[ri], pmask)].push_back(ri);
    }
  });
  ParallelFor(ctx->pool, P, [&](int p) {
    JoinPartition& t = (*tables)[p];
    size_t total = 0;
    for (int bi = 0; bi < nbatches; ++bi) total += scatter[bi][p].size();
    t.keys.Reserve(total);
    std::vector<uint32_t> ids;
    ids.reserve(total);
    std::vector<uint32_t> counts;
    for (int bi = 0; bi < nbatches; ++bi) {
      const BatchKeys& keys = (*images)[bi];
      const std::vector<uint32_t>& rows = scatter[bi][p];
      for (size_t j = 0; j < rows.size(); ++j) {
        if (j + kPrefetchRows < rows.size()) {
          t.keys.Prefetch(keys.hashes[rows[j + kPrefetchRows]]);
        }
        const uint32_t ri = rows[j];
        bool inserted = false;
        const uint32_t id = t.keys.FindOrInsert(
            keys.key(ri) + mask_words, keys.width(ri) - mask_words,
            keys.hashes[ri], &inserted);
        if (inserted) counts.push_back(0);
        counts[id]++;
        ids.push_back(id);
      }
    }
    for (uint32_t id = 0; int_key && id < t.keys.size(); ++id) {
      t.lo = std::min(t.lo, t.keys.key(id)[0]);
      t.hi = std::max(t.hi, t.keys.key(id)[0]);
    }
    t.offsets.assign(counts.size() + 1, 0);
    for (size_t i = 0; i < counts.size(); ++i) {
      t.offsets[i + 1] = t.offsets[i] + counts[i];
    }
    std::vector<uint32_t> cursor(t.offsets.begin(), t.offsets.end() - 1);
    t.refs.resize(total);
    size_t j = 0;
    for (int bi = 0; bi < nbatches; ++bi) {
      for (uint32_t ri : scatter[bi][p]) {
        t.refs[cursor[ids[j++]]++] = {static_cast<uint32_t>(bi), ri};
      }
    }
  });
}

/// The skip rule: a key filter that keeps more than 3/4 of the first
/// kSkipTestRows rows it tests stops running for the rest of the query.
constexpr uint64_t kSkipTestRows = 4096;

}  // namespace

/// The keys of the side a hash join ran first, as its key filters test
/// them: the join's exchange partitions, shared with it, and for a single
/// INT64-lane key the range [lo, hi] of its values. When that range is
/// dense enough that one bit per value costs no more than the KeyTables
/// (at most kBitsPerKey values of span per key, and under kMaxBits bits),
/// the set also keeps an exact bitmap over it, and ContainsInt tests one
/// bit instead of hashing. A dense build side (BuildDense) hashes nothing:
/// its set is the bitmap alone, bit k set when key lo + k has a row, and
/// Contains reads a key image's value word. The scans a filter
/// reaches tally here the rows it tests and keeps, for the skip rule.
class KeySet {
 public:
  KeySet(const std::vector<JoinPartition>& parts, std::vector<DataType> lanes)
      : parts_(&parts),
        lanes_(std::move(lanes)),
        pmask_(static_cast<uint32_t>(parts.size() - 1)) {
    uint64_t keys = 0;
    for (const JoinPartition& t : parts) {
      lo_ = std::min(lo_, t.lo);
      hi_ = std::max(hi_, t.hi);
      keys += t.keys.size();
    }
    if (!int_key() || keys == 0) return;
    // Unsigned, so INT64_MIN..INT64_MAX cannot overflow.
    const uint64_t span =
        static_cast<uint64_t>(hi_) - static_cast<uint64_t>(lo_);
    if (span > kBitsPerKey * keys || span + 1 >= kMaxBits) return;
    bits_.assign(span / 64 + 1, 0);
    for (const JoinPartition& t : parts) {
      for (uint32_t id = 0; id < t.keys.size(); ++id) {
        SetBit(&bits_, Offset(t.keys.key(id)[0]));
      }
    }
  }
  /// The set of a dense build (BuildDense): a bitmap alone, bit k set when
  /// slot k, key lo + k, holds rows. Its span + 2 offsets bound span + 1
  /// slots.
  explicit KeySet(const JoinPartition& dense)
      : lanes_{DataType::kInt64}, lo_(dense.lo), hi_(dense.hi),
        bits_((dense.offsets.size() - 2) / 64 + 1, 0) {
    for (size_t k = 0; k + 1 < dense.offsets.size(); ++k) {
      if (dense.offsets[k + 1] > dense.offsets[k]) SetBit(&bits_, k);
    }
  }

  const std::vector<DataType>& lanes() const { return lanes_; }
  bool int_key() const { return IsIntKey(lanes_); }

  /// Whether the set holds key image `key` (mask words included, all zero)
  /// of `width` words and HashWords `hash`.
  bool Contains(const int64_t* key, size_t width, uint64_t hash) const {
    const size_t skip = MaskWords(lanes_.size());
    if (!bits_.empty()) return ContainsInt(key[skip]);
    return InTables(key + skip, width - skip, hash);
  }
  /// Contains for the non-NULL value `v` of an int_key() set.
  bool ContainsInt(int64_t v) const {
    if (v < lo_ || v > hi_) return false;
    if (!bits_.empty()) {
      const uint64_t off = Offset(v);
      return (bits_[off / 64] >> (off % 64)) & 1;
    }
    const int64_t image[2] = {0, v};
    return InTables(image + 1, 1, HashWords(image, 2));
  }

  bool skipped() const { return skip_.load(); }
  /// Counts a test of `tested` rows that kept `kept`. The test that brings
  /// the count to kSkipTestRows decides whether the filter stops running;
  /// a concurrent test's rows may be missing from its share.
  void Tally(size_t tested, size_t kept) const {
    if (tested_.load() >= kSkipTestRows) return;
    const uint64_t k = kept_.fetch_add(kept) + kept;
    const uint64_t t = tested_.fetch_add(tested) + tested;
    if (t >= kSkipTestRows && t - tested < kSkipTestRows) {
      skip_.store(4 * k > 3 * t);
    }
  }

 private:
  /// A KeyTable spends at least 48 bytes, 384 bits, per key; the bitmap
  /// at most kBitsPerKey per key, plus one word.
  static constexpr uint64_t kBitsPerKey = 256;
  static constexpr uint64_t kMaxBits = uint64_t{1} << 27;

  /// Whether the partition tables hold the key whose image, past its mask
  /// words, is the `width` words at `words`, with HashWords `hash`. Not
  /// Contains, so that ContainsInt inlines into the scan's lane kernel.
  bool InTables(const int64_t* words, size_t width, uint64_t hash) const {
    return (*parts_)[PartitionOf(hash, pmask_)].keys.Find(words, width,
                                                          hash) !=
           KeyTable::kNone;
  }
  /// The bit of value `v` in [lo, hi].
  uint64_t Offset(int64_t v) const {
    return static_cast<uint64_t>(v) - static_cast<uint64_t>(lo_);
  }

  const std::vector<JoinPartition>* parts_ = nullptr;  // null: bits_ only
  std::vector<DataType> lanes_;
  uint32_t pmask_ = 0;
  int64_t lo_ = INT64_MAX, hi_ = INT64_MIN;  // int_key(): the value range
  std::vector<uint64_t> bits_;  // bit v - lo set for each key v, or empty
  mutable std::atomic<uint64_t> tested_{0}, kept_{0};
  mutable std::atomic<bool> skip_{false};
};

void ColumnScanOp::ApplyKeyFilter(const KeyFilter& f, const RowGroup& g,
                                  std::vector<uint32_t>* sel) const {
  const KeySet& keys = *f.keys;
  if (keys.skipped()) return;
  const size_t tested = sel->size();
  if (keys.int_key() && IsIntegerType(out_types_[f.cols[0]])) {
    const int pack = packs_[f.cols[0]];
    const uint8_t* nulls = g.null_data(pack);
    const int64_t* v = g.int_data(pack);
    Refine(sel, [&](uint32_t o) {
      return nulls[o] == 0 && keys.ContainsInt(v[o]);
    });
  } else {
    // Gather the key columns of the selected rows, image them as the join
    // does and look each image up, a batch at a time.
    std::vector<DataType> types;
    std::vector<int> key_cols;
    for (int c : f.cols) {
      key_cols.push_back(static_cast<int>(types.size()));
      types.push_back(out_types_[c]);
    }
    const size_t mask_words = MaskWords(types.size());
    Batch batch = Batch::Make(types);
    BatchKeys images;
    size_t kept = 0;
    for (size_t begin = 0; begin < sel->size();
         begin += Batch::kDefaultCapacity) {
      const size_t n = std::min(Batch::kDefaultCapacity, sel->size() - begin);
      const std::span<const uint32_t> offs(sel->data() + begin, n);
      for (size_t i = 0; i < f.cols.size(); ++i) {
        Gather(g, packs_[f.cols[i]], offs, &batch.cols[i]);
      }
      batch.rows = n;
      EncodeKeys(batch, key_cols, keys.lanes(), &images);
      images.Hash();
      for (size_t i = 0; i < n; ++i) {
        const bool keep =
            images.NoNulls(i, mask_words) &&
            keys.Contains(images.key(i), images.width(i), images.hashes[i]);
        (*sel)[kept] = offs[i];
        kept += keep;
      }
    }
    sel->resize(kept);
  }
  keys.Tally(tested, sel->size());
}

HashJoinOp::HashJoinOp(PhysOpRef build, PhysOpRef probe,
                       std::vector<int> build_keys,
                       std::vector<int> probe_keys, JoinType type,
                       bool probe_first)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      type_(type),
      probe_first_(probe_first) {
  out_types_ = probe_->out_types();
  if (type_ == JoinType::kInner || type_ == JoinType::kLeft) {
    for (DataType t : build_->out_types()) out_types_.push_back(t);
  }
}

Status HashJoinOp::ExecuteFiltered(ExecContext* ctx, const KeyFilters& filters,
                                   RowSet* out) {
  // Both sides image a key pair in one lane, the one Cmp compares it in:
  // STRING, DOUBLE when either side is DOUBLE, else INT64.
  std::vector<DataType> lanes;
  for (size_t k = 0; k < build_keys_.size(); ++k) {
    const DataType b = build_->out_types()[build_keys_[k]];
    const DataType p = probe_->out_types()[probe_keys_[k]];
    if ((b == DataType::kString) != (p == DataType::kString)) {
      return Status::InvalidArgument(std::string("cannot join ") +
                                     DataTypeName(b) + " with " +
                                     DataTypeName(p));
    }
    lanes.push_back(b == DataType::kDouble ? b : LaneOf(p));
  }
  const int probe_width = static_cast<int>(probe_->out_types().size());
  // Filters from above: on probe columns to the probe side; on build
  // columns to the build side, when every build row it drops would drop
  // its output rows (an inner join; a left join pads them instead).
  KeyFilters probe_filters =
      MapFilters(filters, [&](int c) { return c < probe_width ? c : -1; });
  KeyFilters build_filters;
  if (type_ == JoinType::kInner) {
    build_filters = MapFilters(filters, [&](int c) {
      return c >= probe_width ? c - probe_width : -1;
    });
  }
  const int workers = std::max(1, ctx->parallelism);
  const int P = ExchangePartitions(std::min(workers, 64));
  const uint32_t pmask = static_cast<uint32_t>(P - 1);
  const size_t mask_words = MaskWords(lanes.size());

  // The side that runs first hands its key set to the other side, ahead of
  // the filters from above. The key images of a probe side that ran first
  // are kept for the probe phase. A build side with a dense key
  // (DenseJoinRange) images nothing: it is a counting sort over slots
  // key - lo (BuildDense), and its key set is a bitmap over those slots.
  RowSet build_set, probe_set;
  std::vector<BatchKeys> probe_images;
  std::vector<JoinPartition> tables(P);
  std::optional<IntRange> dense;  // the build keys', when dense
  auto build_tables = [&] {
    if (IsIntKey(lanes)) dense = DenseJoinRange(build_set, build_keys_[0]);
    if (dense) {
      BuildDense(build_set, build_keys_[0], *dense, &tables[0]);
    } else {
      BuildPartitions(ctx, build_set, build_keys_, lanes, nullptr, &tables);
    }
  };
  if (probe_first_) {
    IMCI_RETURN_NOT_OK(probe_->ExecuteFiltered(ctx, probe_filters, &probe_set));
    std::vector<JoinPartition> probe_tables(P);
    BuildPartitions(ctx, probe_set, probe_keys_, lanes, &probe_images,
                    &probe_tables);
    const KeySet probe_keys(probe_tables, lanes);
    build_filters.insert(build_filters.begin(),
                         KeyFilter{&probe_keys, build_keys_});
    IMCI_RETURN_NOT_OK(build_->ExecuteFiltered(ctx, build_filters, &build_set));
    build_tables();
  } else {
    IMCI_RETURN_NOT_OK(build_->ExecuteFiltered(ctx, build_filters, &build_set));
    build_tables();
    std::optional<KeySet> build_keys;
    if (type_ == JoinType::kInner || type_ == JoinType::kSemi) {
      if (dense) {
        build_keys.emplace(tables[0]);
      } else {
        build_keys.emplace(tables, lanes);
      }
      probe_filters.insert(probe_filters.begin(),
                           KeyFilter{&*build_keys, probe_keys_});
    }
    IMCI_RETURN_NOT_OK(probe_->ExecuteFiltered(ctx, probe_filters, &probe_set));
  }
  out->types = out_types_;

  const int build_width =
      (type_ == JoinType::kInner || type_ == JoinType::kLeft)
          ? static_cast<int>(build_->out_types().size())
          : 0;

  // build_cols[c][bi]: column c of build batch bi.
  std::vector<std::vector<const ColumnVector*>> build_cols(build_width);
  for (int c = 0; c < build_width; ++c) {
    for (const Batch& bb : build_set.batches) {
      build_cols[c].push_back(&bb.cols[c]);
    }
  }

  // Probe phase: parallel over probe batches, outputs kept in input order.
  // A probe row's matches are the build refs [first, last): a dense build
  // reads them at the slot of the probe key lane's value, a hashed one at
  // the id its key image finds. A batch first lists its output rows —
  // probe_rows[i] paired with build_rows[i], or with kNoMatch for a left
  // join's padding — then gathers each output column from the list in one
  // typed loop.
  std::vector<Batch> results(probe_set.batches.size());
  const int n = static_cast<int>(probe_set.batches.size());
  ParallelFor(ctx->pool, n, [&](int pi) {
    const Batch& pb = probe_set.batches[pi];
    std::vector<uint32_t> probe_rows;
    std::vector<JoinRef> build_rows;  // inner and left joins only
    probe_rows.reserve(pb.rows);
    if (build_width > 0) build_rows.reserve(pb.rows);
    // `matches(ri)` is probe row ri's [first, last).
    auto list = [&](auto matches) {
      for (uint32_t ri = 0; ri < pb.rows; ++ri) {
        const auto [first, last] = matches(ri);
        const bool matched = first != last;
        switch (type_) {
          case JoinType::kLeft:
            if (!matched) {
              probe_rows.push_back(ri);
              build_rows.push_back({kNoMatch, 0});
              break;
            }
            [[fallthrough]];
          case JoinType::kInner:
            probe_rows.insert(probe_rows.end(), last - first, ri);
            build_rows.insert(build_rows.end(), first, last);
            break;
          case JoinType::kSemi:
            if (matched) probe_rows.push_back(ri);
            break;
          case JoinType::kAnti:
            if (!matched) probe_rows.push_back(ri);
            break;
        }
      }
    };
    using Matches = std::pair<const JoinRef*, const JoinRef*>;
    if (dense) {
      const JoinPartition& t = tables[0];
      const ColumnVector& v = pb.cols[probe_keys_[0]];
      list([&](uint32_t ri) -> Matches {
        // A NULL key matches nothing, and neither does one outside.
        const uint64_t off = dense->Offset(v.ints[ri]);
        if (v.nulls[ri] || off > dense->span) return {nullptr, nullptr};
        return {t.refs.data() + t.offsets[off],
                t.refs.data() + t.offsets[off + 1]};
      });
    } else {
      BatchKeys own;
      if (probe_images.empty()) {
        EncodeKeys(pb, probe_keys_, lanes, &own);
        own.Hash();
      }
      const BatchKeys& keys = probe_images.empty() ? own : probe_images[pi];
      list([&](uint32_t ri) -> Matches {
        if (ri + kPrefetchRows < pb.rows) {
          const uint64_t h = keys.hashes[ri + kPrefetchRows];
          tables[PartitionOf(h, pmask)].keys.Prefetch(h);
        }
        if (!keys.NoNulls(ri, mask_words)) return {nullptr, nullptr};
        const uint64_t h = keys.hashes[ri];
        const JoinPartition& t = tables[PartitionOf(h, pmask)];
        const uint32_t id = t.keys.Find(keys.key(ri) + mask_words,
                                        keys.width(ri) - mask_words, h);
        if (id == KeyTable::kNone) return {nullptr, nullptr};
        return {t.refs.data() + t.offsets[id],
                t.refs.data() + t.offsets[id + 1]};
      });
    }
    Batch& outb = results[pi];
    outb = Batch::Make(out_types_);
    outb.rows = probe_rows.size();
    for (int c = 0; c < probe_width; ++c) {
      const ColumnVector* src = &pb.cols[c];
      GatherRows(
          outb.rows,
          [&](size_t i) { return RowRef{src, probe_rows[i]}; },
          &outb.cols[c]);
    }
    for (int c = 0; c < build_width; ++c) {
      const std::vector<const ColumnVector*>& src = build_cols[c];
      GatherRows(
          outb.rows,
          [&](size_t i) {
            const JoinRef m = build_rows[i];
            return m.first == kNoMatch ? RowRef{nullptr, 0}
                                       : RowRef{src[m.first], m.second};
          },
          &outb.cols[probe_width + c]);
    }
  });
  for (Batch& b : results) {
    if (b.rows > 0) out->batches.push_back(std::move(b));
  }
  return Status::OK();
}

namespace {

/// The MIN or MAX of one numeric aggregate: int64 or double, fixed per
/// aggregate at plan time.
union AggLane {
  int64_t i;
  double d;
};

/// Whether `x` replaces `cur` as the MIN (or MAX).
template <typename T>
bool Improves(AggKind kind, const T& x, const T& cur) {
  return kind == AggKind::kMin ? x < cur : x > cur;
}
bool Improves(AggKind kind, bool dbl, AggLane x, AggLane cur) {
  return dbl ? Improves(kind, x.d, cur.d) : Improves(kind, x.i, cur.i);
}

/// Copies of string MIN/MAX values, kept until the operator ends. Blocks
/// never move, so a view into one stays valid as the arena grows.
class ViewArena {
 public:
  std::string_view Keep(std::string_view s) {
    if (blocks_.empty() || s.size() > cap_ - used_) {
      cap_ = std::max(kBlockBytes, s.size());
      blocks_.push_back(std::make_unique_for_overwrite<char[]>(cap_));
      used_ = 0;
    }
    char* at = blocks_.back().get() + used_;
    std::copy(s.begin(), s.end(), at);
    used_ += s.size();
    return {at, s.size()};
  }

 private:
  static constexpr size_t kBlockBytes = 4096;
  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t cap_ = 0, used_ = 0;  // of the last block
};

/// Aggregation state of one worker (or, after the exchange, one
/// partition). Groups are key images, or a dense aggregation's slots
/// (Slots), which keep no keys; a group's aggregate a lives at index
/// gid*A + a of each flat array. For MIN/MAX, counts hold the number of
/// non-NULL inputs (0: the result is NULL); for COUNT DISTINCT, the number
/// of distinct values.
struct AggTable {
  AggTable(int num_aggs, bool with_sums, bool with_minmax, bool with_strs)
      : A(num_aggs), sums_on(with_sums), minmax_on(with_minmax),
        strs_on(with_strs) {}

  /// Returns the dense id of `key`, adding a zeroed state if it is new.
  uint32_t Group(const int64_t* key, size_t width, uint64_t hash,
                 bool* inserted) {
    const uint32_t g = keys.FindOrInsert(key, width, hash, inserted);
    if (*inserted) {
      counts.resize(counts.size() + A, 0);
      if (sums_on) sums.resize(sums.size() + A, 0.0);
      if (minmax_on) minmax.resize(minmax.size() + A, AggLane{0});
      if (strs_on) strs.resize(strs.size() + A);
    }
    return g;
  }

  /// Zeroes the state of `slots` groups, none of them seen, for a dense
  /// aggregation: group id k is slot k, and `keys` stays empty.
  void Slots(size_t slots) {
    counts.assign(slots * A, 0);
    if (sums_on) sums.assign(slots * A, 0.0);
    if (minmax_on) minmax.assign(slots * A, AggLane{0});
    if (strs_on) strs.assign(slots * A, std::string_view());
    seen.assign(slots, 0);
  }

  /// Makes room for `groups` groups and `triples` COUNT DISTINCT keys.
  void Reserve(size_t groups, size_t triples) {
    keys.Reserve(groups);
    counts.reserve(groups * A);
    if (sums_on) sums.reserve(groups * A);
    if (minmax_on) minmax.reserve(groups * A);
    if (strs_on) strs.reserve(groups * A);
    distinct.Reserve(triples);
  }

  KeyTable keys;
  size_t A;
  bool sums_on, minmax_on, strs_on;
  std::vector<int64_t> counts;
  std::vector<double> sums;       // only with SUM/AVG
  std::vector<AggLane> minmax;    // numeric MIN/MAX, only when one exists
  std::vector<std::string_view> strs;  // string MIN/MAX, views into arena
  std::vector<uint8_t> seen;  // dense only: per slot, whether a row hit it
  ViewArena arena;
  KeyTable distinct;
};

/// Hashes the [gid, agg, value image] keys of `keys`, then counts each new
/// one for COUNT DISTINCT in table `table_of(i)`, prefetching a few keys
/// ahead.
template <typename TableOf>
void CountDistinct(BatchKeys* keys, TableOf table_of) {
  const size_t n = keys->start.size() - 1;
  keys->Hash();
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchRows < n) {
      table_of(i + kPrefetchRows).distinct.Prefetch(
          keys->hashes[i + kPrefetchRows]);
    }
    AggTable& t = table_of(i);
    const int64_t* key = keys->key(i);
    bool inserted = false;
    t.distinct.FindOrInsert(key, keys->width(i), keys->hashes[i], &inserted);
    if (inserted) t.counts[static_cast<size_t>(key[0]) * t.A + key[1]]++;
  }
}

/// Counts each non-NULL row r of `v` for COUNT DISTINCT aggregate a of
/// group gids[r] of table *tables[r]. The keys, [gid, agg, value image],
/// are built for the whole batch before any is probed, as in EncodeKeys;
/// key_rows[i] is the row of key i.
void AddDistinct(const std::vector<AggTable*>& tables,
                 const std::vector<uint32_t>& gids, int a,
                 const ColumnVector& v, BatchKeys* keys,
                 std::vector<uint32_t>* key_rows) {
  const DataType lane = LaneOf(v.type);
  keys->words.clear();
  keys->start.clear();
  key_rows->clear();
  for (uint32_t r = 0; r < v.size(); ++r) {
    if (v.nulls[r]) continue;
    const size_t at = keys->words.size();
    keys->start.push_back(at);
    key_rows->push_back(r);
    keys->words.resize(at + 2 + ImageWords(v, r, lane), 0);
    keys->words[at] = gids[r];
    keys->words[at + 1] = a;
    WriteImage(v, r, lane, &keys->words[at + 2]);
  }
  keys->start.push_back(keys->words.size());
  CountDistinct(keys, [&](size_t i) -> AggTable& {
    return *tables[(*key_rows)[i]];
  });
}

/// Folds `src`'s COUNT DISTINCT keys into `dst`, their group ids mapped
/// through `remap`, a batch of keys at a time.
void FoldDistinct(const KeyTable& src, const std::vector<uint32_t>& remap,
                  BatchKeys* keys, AggTable* dst) {
  for (uint32_t begin = 0; begin < src.size();
       begin += Batch::kDefaultCapacity) {
    const uint32_t end =
        std::min<uint32_t>(src.size(), begin + Batch::kDefaultCapacity);
    keys->words.clear();
    keys->start.clear();
    for (uint32_t i = begin; i < end; ++i) {
      const int64_t* k = src.key(i);
      keys->start.push_back(keys->words.size());
      keys->words.push_back(remap[static_cast<size_t>(k[0])]);
      keys->words.insert(keys->words.end(), k + 1, k + src.width(i));
    }
    keys->start.push_back(keys->words.size());
    CountDistinct(keys, [dst](size_t) -> AggTable& { return *dst; });
  }
}

/// Folds each non-NULL row r of `v` into MIN/MAX aggregate a, read in
/// `lane`, of group gids[r] of table *tables[r].
void AddMinMax(AggKind kind, DataType lane, const ColumnVector& v,
               const std::vector<AggTable*>& tables,
               const std::vector<uint32_t>& gids, int a) {
  for (uint32_t ri = 0; ri < gids.size(); ++ri) {
    if (v.nulls[ri]) continue;
    AggTable& t = *tables[ri];
    const size_t s = static_cast<size_t>(gids[ri]) * t.A + a;
    if (lane == DataType::kString) {
      const std::string_view x = v.str(ri);
      if (t.counts[s]++ == 0 || Improves(kind, x, t.strs[s])) {
        t.strs[s] = t.arena.Keep(x);
      }
      continue;
    }
    AggLane x{};
    if (lane == DataType::kDouble) {
      x.d = v.NumericAt(ri);
    } else {
      x.i = v.ints[ri];
    }
    if (t.counts[s]++ == 0 ||
        Improves(kind, lane == DataType::kDouble, x, t.minmax[s])) {
      t.minmax[s] = x;
    }
  }
}

}  // namespace

DataType AggOutType(const AggSpec& a) {
  switch (a.kind) {
    case AggKind::kCount:
    case AggKind::kCountStar:
    case AggKind::kCountDistinct:
    case AggKind::kSumInt:
      return DataType::kInt64;
    case AggKind::kMin:
    case AggKind::kMax:
      return a.arg->out_type;
    default:
      return DataType::kDouble;
  }
}

HashAggOp::HashAggOp(PhysOpRef child, std::vector<int> group_cols,
                     std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)) {
  const auto& ct = child_->out_types();
  for (int c : group_cols_) {
    out_types_.push_back(ct[c]);
    key_lanes_.push_back(LaneOf(ct[c]));
  }
  for (const AggSpec& a : aggs_) {
    out_types_.push_back(AggOutType(a));
    const bool minmax = a.kind == AggKind::kMin || a.kind == AggKind::kMax;
    const DataType lane = minmax ? LaneOf(a.arg->out_type) : DataType::kInt64;
    has_sums_ |= a.kind == AggKind::kSum || a.kind == AggKind::kAvg;
    has_minmax_ |= minmax && lane != DataType::kString;
    has_strings_ |= minmax && lane == DataType::kString;
    has_distinct_ |= a.kind == AggKind::kCountDistinct;
    minmax_lane_.push_back(lane);
  }
}

Status HashAggOp::ExecuteFiltered(ExecContext* ctx, const KeyFilters& filters,
                                  RowSet* out) {
  const int G = static_cast<int>(group_cols_.size());
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->ExecuteFiltered(
      ctx,
      MapFilters(filters, [&](int c) { return c < G ? group_cols_[c] : -1; }),
      &in));
  out->types = out_types_;
  const int A = static_cast<int>(aggs_.size());
  const int workers = std::max(1, std::min(ctx->parallelism, 32));
  // Dense keys: one integer group column whose span + 2 slots, one array
  // set per worker, come to at most 2 per input row. Slot 0 is the NULL
  // group and slot k + 1 key lo + k, so a row's group id is its key's slot:
  // no image, no hash, no exchange partitions.
  std::optional<IntRange> dense;
  if (G == 1 && key_lanes_[0] == DataType::kInt64 && !has_distinct_) {
    dense = KeyRange(in, group_cols_[0]);
    if (dense && !DenseFits(dense->span, 2 * in.TotalRows() / workers)) {
      dense.reset();
    }
  }
  const size_t slots = dense ? dense->span + 2 : 0;
  const int P = dense ? 1 : ExchangePartitions(workers);
  const uint32_t pmask = static_cast<uint32_t>(P - 1);
  const auto new_table = [&] {
    AggTable t(A, has_sums_, has_minmax_, has_strings_);
    if (dense) t.Slots(slots);
    return t;
  };
  // partials[w][p]: worker w's groups whose key hash routes to partition p.
  std::vector<std::vector<AggTable>> partials(workers);
  for (std::vector<AggTable>& tables : partials) {
    for (int p = 0; p < P; ++p) tables.push_back(new_table());
  }
  std::vector<Status> statuses(workers);
  const int nb = static_cast<int>(in.batches.size());
  std::atomic<int> next_batch{0};

  // Partial aggregation: thread-local tables, no synchronization. Each
  // batch first maps every row to its group id: a dense key's slot, or the
  // id in the table of its partition (a row keyed like the row before it
  // takes that row's id without a lookup). It then takes each row's state
  // pointers and updates one aggregate at a time over the whole batch, in a
  // loop typed for its kind and lane.
  ParallelFor(ctx->pool, workers, [&](int wi) {
    std::vector<AggTable>& tables = partials[wi];
    BatchKeys keys, distinct_keys;
    std::vector<AggTable*> row_tables;
    std::vector<uint32_t> gids, key_rows;
    std::vector<int64_t*> counts;
    std::vector<double*> sums;
    std::vector<ColumnVector> evaluated(A);
    std::vector<const ColumnVector*> args(A, nullptr);
    for (;;) {
      const int bi = next_batch.fetch_add(1, std::memory_order_relaxed);
      if (bi >= nb) return;
      const Batch& b = in.batches[bi];
      for (int a = 0; a < A; ++a) {
        const ExprRef& arg = aggs_[a].arg;
        if (!arg) continue;
        if (arg->kind == ExprKind::kCol) {
          args[a] = &b.cols[arg->col];  // no copy for a bare column
        } else {
          // A fresh vector per batch: Eval writes some NULL flags only
          // where a row is NULL, so a reused one keeps the last batch's.
          evaluated[a] = ColumnVector(arg->out_type);
          Status s = arg->Eval(b, &evaluated[a]);
          if (!s.ok()) {
            statuses[wi] = std::move(s);
            return;
          }
          args[a] = &evaluated[a];
        }
        const AggKind kind = aggs_[a].kind;
        const DataType type = args[a]->type, lane = minmax_lane_[a];
        if ((kind == AggKind::kSumInt && !IsIntegerType(type)) ||
            ((kind == AggKind::kMin || kind == AggKind::kMax) &&
             (lane == DataType::kDouble ? type == DataType::kString
                                        : LaneOf(type) != lane))) {
          statuses[wi] = Status::Internal("aggregate argument type");
          return;
        }
      }
      const uint32_t n = static_cast<uint32_t>(b.rows);
      row_tables.resize(n);
      gids.resize(n);
      if (dense) {
        AggTable& t = tables[0];
        const ColumnVector& k = b.cols[group_cols_[0]];
        std::fill(row_tables.begin(), row_tables.end(), &t);
        for (uint32_t ri = 0; ri < n; ++ri) {
          const uint32_t g =
              k.nulls[ri] ? 0
                          : static_cast<uint32_t>(dense->Offset(k.ints[ri])) + 1;
          gids[ri] = g;
          t.seen[g] = 1;
        }
      } else {
        EncodeKeys(b, group_cols_, key_lanes_, &keys);
        keys.Hash();
        for (uint32_t ri = 0; ri < n; ++ri) {
          row_tables[ri] = &tables[PartitionOf(keys.hashes[ri], pmask)];
        }
        for (uint32_t ri = 0; ri < n; ++ri) {
          if (ri + kPrefetchRows < n) {
            row_tables[ri + kPrefetchRows]->keys.Prefetch(
                keys.hashes[ri + kPrefetchRows]);
          }
          if (ri > 0 && keys.SameKey(ri - 1, ri)) {
            gids[ri] = gids[ri - 1];  // same key, same table
            continue;
          }
          bool inserted = false;
          gids[ri] = row_tables[ri]->Group(keys.key(ri), keys.width(ri),
                                           keys.hashes[ri], &inserted);
        }
      }
      // Each row's state, now that no group of the batch is still to be
      // added: aggregate a of row ri is counts[ri][a] and sums[ri][a].
      counts.resize(n);
      if (has_sums_) sums.resize(n);
      for (uint32_t ri = 0; ri < n; ++ri) {
        const size_t at = static_cast<size_t>(gids[ri]) * A;
        counts[ri] = row_tables[ri]->counts.data() + at;
        if (has_sums_) sums[ri] = row_tables[ri]->sums.data() + at;
      }
      for (int a = 0; a < A; ++a) {
        const AggKind kind = aggs_[a].kind;
        if (kind == AggKind::kCountStar) {
          for (uint32_t ri = 0; ri < n; ++ri) counts[ri][a]++;
          continue;
        }
        const ColumnVector& v = *args[a];
        const uint8_t* nulls = v.nulls.data();
        switch (kind) {
          case AggKind::kCount:
            for (uint32_t ri = 0; ri < n; ++ri) counts[ri][a] += !nulls[ri];
            break;
          case AggKind::kSumInt:
            for (uint32_t ri = 0; ri < n; ++ri) {
              if (!nulls[ri]) counts[ri][a] += v.ints[ri];
            }
            break;
          case AggKind::kSum:
          case AggKind::kAvg:
            v.WithLane<double>([&](auto at) {
              for (uint32_t ri = 0; ri < n; ++ri) {
                if (nulls[ri]) continue;
                sums[ri][a] += at(ri);
                counts[ri][a]++;
              }
            });
            break;
          case AggKind::kCountDistinct:
            AddDistinct(row_tables, gids, a, v, &distinct_keys, &key_rows);
            break;
          case AggKind::kMin:
          case AggKind::kMax:
            AddMinMax(kind, minmax_lane_[a], v, row_tables, gids, a);
            break;
          case AggKind::kCountStar:
            break;
        }
      }
    }
  });
  for (const Status& s : statuses) IMCI_RETURN_NOT_OK(s);

  // Folds group g of `src` into group dg of `dst` (`inserted`: dg holds no
  // partial yet), keeping string MIN/MAX values in `arena`, as src is freed
  // before the output is built. COUNT DISTINCT is re-counted by the caller.
  const auto fold = [&](const AggTable& src, size_t g, AggTable* dst,
                        size_t dg, bool inserted, ViewArena* arena) {
    for (int a = 0; a < A; ++a) {
      const size_t s = g * A + a;
      const size_t d = dg * A + a;
      const AggKind kind = aggs_[a].kind;
      const DataType lane = minmax_lane_[a];
      if (kind == AggKind::kCountDistinct) continue;
      if (kind == AggKind::kSum || kind == AggKind::kAvg) {
        dst->sums[d] = inserted ? src.sums[s] : dst->sums[d] + src.sums[s];
      } else if ((kind == AggKind::kMin || kind == AggKind::kMax) &&
                 src.counts[s] > 0) {
        if (lane == DataType::kString) {
          if (dst->counts[d] == 0 ||
              Improves(kind, src.strs[s], dst->strs[d])) {
            dst->strs[d] = arena->Keep(src.strs[s]);
          }
        } else if (dst->counts[d] == 0 ||
                   Improves(kind, lane == DataType::kDouble, src.minmax[s],
                            dst->minmax[d])) {
          dst->minmax[d] = src.minmax[s];
        }
      }
      dst->counts[d] += src.counts[s];
    }
  };

  // Exchange/merge: workers 1..W-1 fold into worker 0 in worker order, so
  // a group's partials always add up in worker order. Dense tables fold
  // over disjoint slot ranges in parallel, each range keeping its string
  // values in its own arena. Hashed tables fold per partition: partition p
  // takes over worker 0's table p, reserves it for every worker's groups of
  // p and folds the other workers' tables p into it. A range or partition
  // reads and writes only its own state, so they merge without
  // synchronization.
  std::vector<ViewArena> arenas(dense ? workers : 0);
  if (dense) {
    AggTable& dst = partials[0][0];
    ParallelFor(ctx->pool, workers, [&](int r) {
      const size_t begin = slots * r / workers;
      const size_t end = slots * (r + 1) / workers;
      for (int w = 1; w < workers; ++w) {
        const AggTable& src = partials[w][0];
        for (size_t g = begin; g < end; ++g) {
          if (!src.seen[g]) continue;
          fold(src, g, &dst, g, !dst.seen[g], &arenas[r]);
          dst.seen[g] = 1;
        }
      }
    });
  } else {
    ParallelFor(ctx->pool, P, [&](int p) {
      AggTable& dst = partials[0][p];
      size_t groups = 0, triples = 0;
      for (int w = 0; w < workers; ++w) {
        groups += partials[w][p].keys.size();
        triples += partials[w][p].distinct.size();
      }
      dst.Reserve(groups, triples);
      std::vector<uint32_t> remap;  // src group id -> dst group id
      BatchKeys distinct_keys;
      for (int w = 1; w < workers; ++w) {
        AggTable& src = partials[w][p];
        remap.resize(src.keys.size());
        for (uint32_t g = 0; g < src.keys.size(); ++g) {
          if (g + kPrefetchRows < src.keys.size()) {
            dst.keys.Prefetch(src.keys.hash(g + kPrefetchRows));
          }
          bool inserted = false;
          const uint32_t dg = dst.Group(src.keys.key(g), src.keys.width(g),
                                        src.keys.hash(g), &inserted);
          remap[g] = dg;
          fold(src, g, &dst, dg, inserted, &dst.arena);
        }
        FoldDistinct(src.distinct, remap, &distinct_keys, &dst);
        src = new_table();  // folded: free it now
      }
    });
  }
  std::vector<AggTable> merged = std::move(partials[0]);
  partials.clear();

  // Emit in ascending key order, the same at every dop and in the
  // coordinator's final fold: `emit` appends group g of `t`'s aggregates
  // after its key columns.
  Batch outb = Batch::Make(out_types_);
  const auto emit = [&](const AggTable& t, size_t g) {
    for (int a = 0; a < A; ++a) {
      const size_t s = g * A + a;
      ColumnVector& col = outb.cols[G + a];
      switch (aggs_[a].kind) {
        case AggKind::kSum:
        case AggKind::kAvg:
          if (t.counts[s] == 0) {
            col.AppendNull();
          } else if (aggs_[a].kind == AggKind::kSum) {
            col.AppendDouble(t.sums[s]);
          } else {
            col.AppendDouble(t.sums[s] / t.counts[s]);
          }
          break;
        case AggKind::kCount:
        case AggKind::kCountStar:
        case AggKind::kSumInt:
        case AggKind::kCountDistinct:
          col.AppendInt(t.counts[s]);
          break;
        case AggKind::kMin:
        case AggKind::kMax:
          if (t.counts[s] == 0) {
            col.AppendNull();
          } else if (minmax_lane_[a] == DataType::kString) {
            col.AppendString(t.strs[s]);
          } else if (minmax_lane_[a] == DataType::kDouble) {
            col.AppendDouble(t.minmax[s].d);
          } else {
            col.AppendInt(t.minmax[s].i);
          }
          break;
      }
    }
    outb.rows++;
    if (outb.rows >= Batch::kDefaultCapacity) {
      out->batches.push_back(std::move(outb));
      outb = Batch::Make(out_types_);
    }
  };

  if (dense) {
    // Slot order is key order, NULL first.
    const AggTable& t = merged[0];
    for (size_t g = 0; g < slots; ++g) {
      if (!t.seen[g]) continue;
      if (g == 0) {
        outb.cols[0].AppendNull();
      } else {
        outb.cols[0].AppendInt(static_cast<int64_t>(
            static_cast<uint64_t>(dense->lo) + (g - 1)));
      }
      emit(t, g);
    }
  } else {
    // SQL returns one row for a global aggregate over no rows; its key is
    // empty.
    size_t total_groups = 0;
    for (const AggTable& t : merged) total_groups += t.keys.size();
    if (total_groups == 0 && G == 0) {
      bool inserted = false;
      merged[0].Group(nullptr, 0, HashWords(nullptr, 0), &inserted);
    }

    // Sort each partition's ids in parallel, then merge the partitions.
    // Carrying (prefix, key, id) keeps the id -> key lookup out of the
    // comparisons.
    const std::vector<uint8_t> ascending(G, 0);
    const KeyOrder key_order(key_lanes_, ascending);
    std::vector<std::vector<KeyRef>> order(P);
    ParallelFor(ctx->pool, P, [&](int p) {
      const KeyTable& keys = merged[p].keys;
      order[p].resize(keys.size());
      for (uint32_t g = 0; g < keys.size(); ++g) {
        order[p][g] = key_order.Ref(keys.key(g), g);
      }
      std::sort(order[p].begin(), order[p].end(), key_order);
    });
    struct Head {
      int part;
      size_t pos;
    };
    auto greater = [&](const Head& x, const Head& y) {
      return key_order(order[y.part][y.pos], order[x.part][x.pos]);
    };
    std::priority_queue<Head, std::vector<Head>, decltype(greater)> heap(
        greater);
    for (int p = 0; p < P; ++p) {
      if (!order[p].empty()) heap.push({p, 0});
    }
    while (!heap.empty()) {
      const Head h = heap.top();
      heap.pop();
      if (h.pos + 1 < order[h.part].size()) heap.push({h.part, h.pos + 1});
      const KeyRef& ref = order[h.part][h.pos];
      AppendKey(ref.key, key_lanes_, &outb);
      emit(merged[h.part], ref.id);
    }
  }
  if (outb.rows > 0) out->batches.push_back(std::move(outb));
  return Status::OK();
}

SortOp::SortOp(PhysOpRef child, std::vector<SortKey> keys, int64_t limit)
    : child_(std::move(child)), keys_(std::move(keys)), limit_(limit) {
  out_types_ = child_->out_types();
}

Status SortOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->Execute(ctx, &in));
  out->types = out_types_;
  if (in.TotalRows() > UINT32_MAX) {
    return Status::NotSupported("sort input past 2^32 rows");
  }
  // A row's key image holds the sort keys, then every column as a full-row
  // tie-break: the order is total, so tied rows straddling a LIMIT resolve
  // the same way on every node and in the coordinator's re-sort.
  std::vector<int> cols;
  std::vector<DataType> lanes;
  std::vector<uint8_t> desc;
  for (const SortKey& k : keys_) {
    cols.push_back(k.col);
    desc.push_back(k.desc);
  }
  for (size_t c = 0; c < out_types_.size(); ++c) {
    cols.push_back(static_cast<int>(c));
    desc.push_back(0);
  }
  for (int c : cols) lanes.push_back(LaneOf(out_types_[c]));
  const int nb = static_cast<int>(in.batches.size());
  std::vector<BatchKeys> keys(nb);
  ParallelFor(ctx->pool, nb, [&](int bi) {
    EncodeKeys(in.batches[bi], cols, lanes, &keys[bi]);
  });
  const KeyOrder order(lanes, desc);
  struct Loc {
    uint32_t batch, row;
  };
  std::vector<Loc> at;  // row id -> its batch and row
  std::vector<KeyRef> refs;
  at.reserve(in.TotalRows());
  refs.reserve(in.TotalRows());
  for (uint32_t bi = 0; bi < in.batches.size(); ++bi) {
    for (uint32_t r = 0; r < in.batches[bi].rows; ++r) {
      const uint32_t id = static_cast<uint32_t>(at.size());
      refs.push_back(order.Ref(keys[bi].key(r), id));
      at.push_back({bi, r});
    }
  }
  size_t n = refs.size();
  if (limit_ >= 0 && static_cast<size_t>(limit_) < n) {
    n = static_cast<size_t>(limit_);
    std::partial_sort(refs.begin(), refs.begin() + n, refs.end(), order);
  } else {
    std::sort(refs.begin(), refs.end(), order);
  }

  // Gather the sorted rows a column at a time, a batch at a time.
  for (size_t begin = 0; begin < n; begin += Batch::kDefaultCapacity) {
    Batch b = Batch::Make(out_types_);
    b.rows = std::min(Batch::kDefaultCapacity, n - begin);
    for (size_t c = 0; c < out_types_.size(); ++c) {
      GatherRows(
          b.rows,
          [&](size_t i) {
            const Loc l = at[refs[begin + i].id];
            return RowRef{&in.batches[l.batch].cols[c], l.row};
          },
          &b.cols[c]);
    }
    out->batches.push_back(std::move(b));
  }
  return Status::OK();
}

ValuesOp::ValuesOp(RowSet rows) : rows_(std::move(rows)) {
  out_types_ = rows_.types;
}

Status ValuesOp::Execute(ExecContext* /*ctx*/, RowSet* out) {
  *out = rows_;
  return Status::OK();
}

std::vector<Row> ToRows(const RowSet& set) {
  std::vector<Row> rows;
  rows.reserve(set.TotalRows());
  for (const Batch& b : set.batches) {
    for (size_t i = 0; i < b.rows; ++i) {
      Row r;
      r.reserve(b.cols.size());
      for (const auto& col : b.cols) r.push_back(col.GetValue(i));
      rows.push_back(std::move(r));
    }
  }
  return rows;
}

Status RunPlan(const PhysOpRef& root, ExecContext* ctx,
               std::vector<Row>* out) {
  RowSet set;
  IMCI_RETURN_NOT_OK(root->Execute(ctx, &set));
  *out = ToRows(set);
  return Status::OK();
}

}  // namespace imci
