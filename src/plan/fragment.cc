#include "plan/fragment.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "common/coding.h"

namespace imci {

namespace {

constexpr size_t kMaxPlanDepth = 512;

bool IsSpineKind(LogicalKind k) {
  return k == LogicalKind::kProject || k == LogicalKind::kFilter ||
         k == LogicalKind::kSort;
}

/// Rebuilds the coordinator-side spine (root-first `upper`) on top of `base`
/// with fresh nodes, leaving the original plan untouched.
LogicalRef RebuildSpine(const std::vector<LogicalRef>& upper, LogicalRef base) {
  for (size_t i = upper.size(); i > 0; --i) {
    auto n = std::make_shared<LogicalNode>(*upper[i - 1]);
    n->children = {std::move(base)};
    base = std::move(n);
  }
  return base;
}

/// Key-class co-partitioning analysis over an unshared plan (every node has
/// one parent, so each occurrence of a reused subquery gets its own
/// decision). A subtree is "partitioned on output ordinal k" when, restricted
/// to fragment f, it produces exactly the rows of its full output whose
/// column k lies in range f, a NULL key belonging to the first (open-low)
/// range. Every partitioned scan is restricted to the same value ranges, so
/// two partitioned inputs joined on the partition key meet in one fragment.
class CoPartitioner {
 public:
  static constexpr int kAnyKey = -1;    // disjoint and complete, any key
  static constexpr int kReplicate = -2;  // every fragment computes it all

  CoPartitioner(const Catalog& catalog, const StatsCollector& stats)
      : catalog_(catalog), stats_(stats) {}

  /// The largest scan row volume that can be partitioned so `n`'s output is
  /// split on output ordinal `want` (kAnyKey: any key, not necessarily an
  /// output column); 0 when no partitioning exists.
  uint64_t Best(const LogicalNode* n, int want) {
    const auto key = std::make_pair(n, want);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second.vol;
    Choice c;
    switch (n->kind) {
      case LogicalKind::kScan: {
        auto schema = catalog_.Get(n->table_id);
        if (!schema) break;
        const int col =
            want == kAnyKey ? schema->pk_col()
            : want < static_cast<int>(n->cols.size()) ? n->cols[want]
                                                       : -1;
        if (col < 0 || col >= schema->num_columns() ||
            !IsIntegerType(schema->column(col).type)) {
          break;
        }
        const TableStats* ts = stats_.Get(n->table_id);
        if (ts == nullptr || ts->row_count == 0 ||
            col >= static_cast<int>(ts->cols.size()) ||
            !ts->cols[col].has_range) {
          break;
        }
        c = {ts->row_count, col, kReplicate};
        break;
      }
      case LogicalKind::kFilter:
        c = {Best(n->children[0].get(), want), want, kReplicate};
        break;
      case LogicalKind::kProject: {
        // Rows map one to one, so any split survives; a keyed split only
        // through a bare column reference.
        int child_want = kAnyKey;
        if (want != kAnyKey) {
          if (want >= static_cast<int>(n->exprs.size())) break;
          const Expr& e = *n->exprs[want];
          if (e.kind != ExprKind::kCol) break;
          child_want = e.col;
        }
        c = {Best(n->children[0].get(), child_want), child_want, kReplicate};
        break;
      }
      case LogicalKind::kJoin:
        c = BestJoin(n, want);
        break;
      case LogicalKind::kAgg: {
        // Below the cut an aggregate is complete per fragment only when
        // every group lives in one fragment: split on a group column.
        const int G = static_cast<int>(n->group_cols.size());
        for (int g = 0; g < G; ++g) {
          if (want != kAnyKey && want != g) continue;
          const int child_want = n->group_cols[g];
          const uint64_t v = Best(n->children[0].get(), child_want);
          if (v > c.vol) c = {v, child_want, kReplicate};
        }
        break;
      }
      default:
        // kSort/kValues below the cut: their subtrees replicate.
        break;
    }
    memo_[key] = c;
    return c.vol;
  }

  /// Marks the scans of the Best(n, want) decision with their partition
  /// column and widens the common key range over their sampled ranges.
  void Apply(LogicalNode* n, int want) {
    const Choice& c = memo_.at(std::make_pair(n, want));
    if (n->kind == LogicalKind::kScan) {
      n->part_col = c.first;
      const TableStats::ColStats& cs = stats_.Get(n->table_id)->cols[c.first];
      lo_ = has_range_ ? std::min(lo_, cs.min) : cs.min;
      hi_ = has_range_ ? std::max(hi_, cs.max) : cs.max;
      has_range_ = true;
      return;
    }
    if (c.first != kReplicate) Apply(n->children[0].get(), c.first);
    if (c.second != kReplicate) Apply(n->children[1].get(), c.second);
  }

  int64_t lo() const { return lo_; }
  int64_t hi() const { return hi_; }

 private:
  /// vol: partitioned scan rows. Scan: first is the partition column.
  /// Other nodes: the wants passed to children[0] and children[1].
  struct Choice {
    uint64_t vol = 0;
    int first = kReplicate;
    int second = kReplicate;
  };

  Choice BestJoin(const LogicalNode* n, int want) {
    const LogicalNode* probe = n->children[0].get();
    const LogicalNode* build = n->children[1].get();
    const bool inner = n->join_type == JoinType::kInner;
    Choice best;
    std::vector<DataType> probe_types;
    if (!InferOutputTypes(n->children[0], catalog_, &probe_types).ok()) {
      return best;
    }
    const int nl = static_cast<int>(probe_types.size());
    // Options are tried in a fixed order and only a strictly larger volume
    // replaces the incumbent, so the choice is deterministic.
    auto consider = [&](int lw, int rw) {
      const uint64_t lv = lw == kReplicate ? 0 : Best(probe, lw);
      const uint64_t rv = rw == kReplicate ? 0 : Best(build, rw);
      if ((lw != kReplicate && lv == 0) || (rw != kReplicate && rv == 0)) {
        return;
      }
      if (lv + rv > best.vol) best = {lv + rv, lw, rw};
    };
    // Probe split, build replicated: each probe row meets the whole build
    // side exactly once, for every join type.
    if (want == kAnyKey || want < nl) consider(want, kReplicate);
    // Build split, probe replicated: each (probe, build) pair is produced
    // where its build row lives. Inner joins only; a left/semi/anti join
    // would decide "unmatched" per fragment.
    if (inner) {
      if (want == kAnyKey) consider(kReplicate, kAnyKey);
      if (want >= nl) consider(kReplicate, want - nl);
    }
    // Both sides split on one equi-key pair: every match lies in the probe
    // row's fragment (NULL keys match nothing), for every join type. The
    // split continues upward on the probe key; on the build key only for
    // inner joins, where an outer row's build key may be NULL.
    for (size_t j = 0; j < n->left_keys.size(); ++j) {
      const int lk = n->left_keys[j];
      const int rk = n->right_keys[j];
      if (want == kAnyKey || want == lk || (inner && want == nl + rk)) {
        consider(lk, rk);
      }
    }
    return best;
  }

  const Catalog& catalog_;
  const StatsCollector& stats_;
  std::map<std::pair<const LogicalNode*, int>, Choice> memo_;
  bool has_range_ = false;
  int64_t lo_ = 0, hi_ = 0;
};

/// Sets fragment `i`'s key range on every partitioned scan under `n`.
void SetFragmentRange(LogicalNode* n, const std::vector<int64_t>& cuts,
                      size_t i) {
  if (n->kind == LogicalKind::kScan && n->part_col >= 0) {
    n->part_has_lo = i > 0;
    if (i > 0) n->part_lo = cuts[i - 1];
    n->part_has_hi = i < cuts.size();
    if (i < cuts.size()) n->part_hi = cuts[i] - 1;
  }
  for (const LogicalRef& c : n->children) SetFragmentRange(c.get(), cuts, i);
}

}  // namespace

LogicalRef ClonePlan(const LogicalRef& plan) {
  if (!plan) return nullptr;
  auto n = std::make_shared<LogicalNode>(*plan);
  for (LogicalRef& c : n->children) c = ClonePlan(c);
  return n;
}

namespace {

bool InRange(int col, size_t width) {
  return col >= 0 && static_cast<size_t>(col) < width;
}

/// Children of a well-formed `kind` node; -Wswitch flags a new kind.
size_t ChildCount(LogicalKind kind) {
  switch (kind) {
    case LogicalKind::kScan: return 0;
    case LogicalKind::kValues: return 0;
    case LogicalKind::kJoin: return 2;
    case LogicalKind::kFilter: return 1;
    case LogicalKind::kProject: return 1;
    case LogicalKind::kAgg: return 1;
    case LogicalKind::kSort: return 1;
  }
  return SIZE_MAX;  // no such kind
}

}  // namespace

Status InferOutputTypes(const LogicalRef& plan, const Catalog& catalog,
                        std::vector<DataType>* out) {
  out->clear();
  if (plan->children.size() != ChildCount(plan->kind)) {
    return Status::InvalidArgument("child count");
  }
  switch (plan->kind) {
    case LogicalKind::kScan: {
      auto schema = catalog.Get(plan->table_id);
      if (!schema) return Status::NotFound("schema for scan");
      IMCI_RETURN_NOT_OK(CheckColumnScan(*schema, *plan));
      for (int c : plan->cols) out->push_back(schema->column(c).type);
      return Status::OK();
    }
    case LogicalKind::kFilter:
      if (plan->exprs.size() != 1) {
        return Status::InvalidArgument("filter without one predicate");
      }
      return InferOutputTypes(plan->children[0], catalog, out);
    case LogicalKind::kSort:
      IMCI_RETURN_NOT_OK(InferOutputTypes(plan->children[0], catalog, out));
      for (const SortKey& k : plan->sort_keys) {
        if (!InRange(k.col, out->size())) {
          return Status::InvalidArgument("sort column out of range");
        }
      }
      return Status::OK();
    case LogicalKind::kProject:
      IMCI_RETURN_NOT_OK(InferOutputTypes(plan->children[0], catalog, out));
      out->clear();  // the child's shape checked, its types replaced
      for (const ExprRef& e : plan->exprs) out->push_back(e->out_type);
      return Status::OK();
    case LogicalKind::kJoin: {
      if (plan->left_keys.size() != plan->right_keys.size()) {
        return Status::InvalidArgument("join key counts differ");
      }
      IMCI_RETURN_NOT_OK(InferOutputTypes(plan->children[0], catalog, out));
      std::vector<DataType> build;
      IMCI_RETURN_NOT_OK(InferOutputTypes(plan->children[1], catalog, &build));
      for (size_t j = 0; j < plan->left_keys.size(); ++j) {
        if (!InRange(plan->left_keys[j], out->size()) ||
            !InRange(plan->right_keys[j], build.size())) {
          return Status::InvalidArgument("join key out of range");
        }
      }
      if (plan->join_type == JoinType::kInner ||
          plan->join_type == JoinType::kLeft) {
        out->insert(out->end(), build.begin(), build.end());
      }
      return Status::OK();
    }
    case LogicalKind::kAgg: {
      std::vector<DataType> child;
      IMCI_RETURN_NOT_OK(InferOutputTypes(plan->children[0], catalog, &child));
      for (int g : plan->group_cols) {
        if (!InRange(g, child.size())) {
          return Status::InvalidArgument("group column out of range");
        }
        out->push_back(child[g]);
      }
      for (const AggSpec& a : plan->aggs) {
        if (!a.arg && a.kind != AggKind::kCountStar) {
          return Status::InvalidArgument("aggregate without an argument");
        }
        out->push_back(AggOutType(a));
      }
      return Status::OK();
    }
    case LogicalKind::kValues:
      // The coordinator's local leaf: a plan holding one stays on one node.
      return Status::NotSupported("values leaf");
  }
  return Status::NotSupported("logical kind");
}

Status CutFragments(const LogicalRef& plan, const Catalog& catalog,
                    const StatsCollector& stats, int nfrags,
                    FragmentSet* out) {
  if (!plan) return Status::InvalidArgument("null plan");
  if (nfrags < 2) return Status::NotSupported("fan-out below 2");

  // Walk the single-child spine from the root. The cut happens at the first
  // aggregate (partial-agg fold), else at the deepest sort (per-fragment
  // sort+limit, re-sorted by the completion plan), else the whole plan
  // partitions row-disjoint. The coordinator always concatenates.
  std::vector<LogicalRef> spine;
  LogicalRef cur = plan;
  LogicalRef agg;
  int last_sort = -1;
  for (;;) {
    if (cur->kind == LogicalKind::kAgg) {
      agg = cur;
      break;
    }
    if (!IsSpineKind(cur->kind)) break;
    if (cur->kind == LogicalKind::kSort) {
      last_sort = static_cast<int>(spine.size());
    }
    spine.push_back(cur);
    cur = cur->children[0];
  }

  // Each branch clones the fragment plan template (cloned again per range)
  // and picks where the co-partitioning search starts: below the cut's
  // aggregate or sort, at the root of a concat cut.
  FragmentSet fs;
  LogicalRef tmpl;
  LogicalNode* search_root;
  if (agg) {
    // Two-phase aggregate decomposition. COUNT folds through an int64 sum
    // (kSumInt) so the merged count keeps its type; AVG decomposes into
    // SUM+COUNT partials recombined with a division projection (NULL on
    // zero count, matching the single-node kAvg).
    std::vector<DataType> child_types;
    IMCI_RETURN_NOT_OK(
        InferOutputTypes(agg->children[0], catalog, &child_types));
    const int G = static_cast<int>(agg->group_cols.size());
    std::vector<AggSpec> partial, finals;
    struct Slot {
      bool is_avg;
      int pos;      // final-agg output position (sum for avg)
      int cnt_pos;  // avg only
    };
    std::vector<Slot> slots;
    bool any_avg = false;
    for (const AggSpec& a : agg->aggs) {
      const int p = G + static_cast<int>(partial.size());
      switch (a.kind) {
        case AggKind::kSum:
          partial.push_back({AggKind::kSum, a.arg});
          slots.push_back({false, p, -1});
          finals.push_back({AggKind::kSum, Col(p, DataType::kDouble)});
          break;
        case AggKind::kAvg:
          any_avg = true;
          partial.push_back({AggKind::kSum, a.arg});
          partial.push_back({AggKind::kCount, a.arg});
          slots.push_back({true, p, p + 1});
          finals.push_back({AggKind::kSum, Col(p, DataType::kDouble)});
          finals.push_back({AggKind::kSumInt, Col(p + 1, DataType::kInt64)});
          break;
        case AggKind::kCount:
          partial.push_back({AggKind::kCount, a.arg});
          slots.push_back({false, p, -1});
          finals.push_back({AggKind::kSumInt, Col(p, DataType::kInt64)});
          break;
        case AggKind::kCountStar:
          partial.push_back({AggKind::kCountStar, nullptr});
          slots.push_back({false, p, -1});
          finals.push_back({AggKind::kSumInt, Col(p, DataType::kInt64)});
          break;
        case AggKind::kMin:
          partial.push_back({AggKind::kMin, a.arg});
          slots.push_back({false, p, -1});
          finals.push_back({AggKind::kMin, Col(p, a.arg->out_type)});
          break;
        case AggKind::kMax:
          partial.push_back({AggKind::kMax, a.arg});
          slots.push_back({false, p, -1});
          finals.push_back({AggKind::kMax, Col(p, a.arg->out_type)});
          break;
        default:
          // COUNT(DISTINCT) partials don't fold without shipping the
          // distinct sets; the query stays single-node.
          return Status::NotSupported("non-distributable aggregate");
      }
    }
    tmpl = ClonePlan(LAgg(agg->children[0], agg->group_cols, partial));
    search_root = tmpl->children[0].get();
    for (int g : agg->group_cols) fs.fragment_types.push_back(child_types[g]);
    for (const AggSpec& p : partial) fs.fragment_types.push_back(AggOutType(p));
    fs.values_node = LValues(fs.fragment_types);
    std::vector<int> final_groups(G);
    std::iota(final_groups.begin(), final_groups.end(), 0);
    LogicalRef fin = LAgg(fs.values_node, final_groups, finals);
    if (any_avg) {
      std::vector<ExprRef> proj;
      for (int g = 0; g < G; ++g) {
        proj.push_back(Col(g, child_types[agg->group_cols[g]]));
      }
      for (size_t i = 0; i < slots.size(); ++i) {
        const Slot& s = slots[i];
        if (s.is_avg) {
          proj.push_back(Col(s.pos, DataType::kDouble));
          proj.back() = Div(proj.back(), Col(s.cnt_pos, DataType::kInt64));
        } else {
          proj.push_back(Col(s.pos, AggOutType(finals[s.pos - G])));
        }
      }
      fin = LProject(fin, std::move(proj));
    }
    fs.final_plan = RebuildSpine(spine, std::move(fin));
  } else if (last_sort >= 0) {
    // Sort cut: fragments sort (and limit) their partition; the completion
    // plan sorts (and limits) the concatenated runs again under the same
    // total order, which yields the single-node top rows.
    tmpl = ClonePlan(spine[last_sort]);
    search_root = tmpl->children[0].get();
    IMCI_RETURN_NOT_OK(InferOutputTypes(tmpl, catalog, &fs.fragment_types));
    fs.values_node = LValues(fs.fragment_types);
    fs.final_plan = RebuildSpine(
        {spine.begin(), spine.begin() + last_sort + 1}, fs.values_node);
  } else {
    // Concat cut: fragment outputs are disjoint row sets.
    tmpl = ClonePlan(plan);
    search_root = tmpl.get();
    IMCI_RETURN_NOT_OK(InferOutputTypes(plan, catalog, &fs.fragment_types));
    fs.values_node = LValues(fs.fragment_types);
    fs.final_plan = fs.values_node;
  }

  // Key-class co-partitioning, decided on an unshared copy so the caller's
  // plan is never mutated and a reused subquery gets one decision per
  // occurrence. The cut's input only has to be split disjointly and
  // completely; below it, joins and aggregates pull their inputs onto one
  // key class where that keeps them complete per fragment.
  CoPartitioner parts(catalog, stats);
  if (parts.Best(search_root, CoPartitioner::kAnyKey) == 0) {
    return Status::NotSupported("no partitionable scan");
  }
  parts.Apply(search_root, CoPartitioner::kAnyKey);

  // Cut interior boundaries over the union of the partitioned columns'
  // sampled ranges. The first and last ranges are open-ended, so values
  // outside the (sampled, possibly stale) min/max still land in exactly one
  // fragment. Arithmetic in double: the span may exceed int64.
  const double lo = static_cast<double>(parts.lo());
  const double span = static_cast<double>(parts.hi()) - lo + 1.0;
  std::vector<int64_t> cuts;
  for (int i = 1; i < nfrags; ++i) {
    const double d = lo + span * i / nfrags;
    if (d >= std::ldexp(1.0, 63)) break;  // beyond int64 (hi near max)
    const int64_t b = static_cast<int64_t>(d);
    if (b > (cuts.empty() ? parts.lo() : cuts.back())) cuts.push_back(b);
  }
  if (cuts.empty()) return Status::NotSupported("degenerate key range");

  for (size_t i = 0; i <= cuts.size(); ++i) {
    LogicalRef frag = ClonePlan(tmpl);
    SetFragmentRange(frag.get(), cuts, i);
    fs.fragments.push_back(std::move(frag));
  }
  *out = std::move(fs);
  return Status::OK();
}

// --- Plan wire format ---------------------------------------------------

namespace {

void PutPlanRec(std::string* dst, const LogicalRef& n) {
  dst->push_back(static_cast<char>(n->kind));
  PutFixed32(dst, n->table_id);
  PutFixed32(dst, static_cast<uint32_t>(n->cols.size()));
  for (int c : n->cols) PutFixed32(dst, static_cast<uint32_t>(c));
  dst->push_back(n->filter ? 1 : 0);
  if (n->filter) PutExpr(dst, n->filter);
  PutFixed32(dst, static_cast<uint32_t>(n->part_col));
  dst->push_back(static_cast<char>((n->part_has_lo ? 1 : 0) |
                                   (n->part_has_hi ? 2 : 0)));
  PutFixed64(dst, static_cast<uint64_t>(n->part_lo));
  PutFixed64(dst, static_cast<uint64_t>(n->part_hi));
  PutFixed32(dst, static_cast<uint32_t>(n->exprs.size()));
  for (const ExprRef& e : n->exprs) PutExpr(dst, e);
  PutFixed32(dst, static_cast<uint32_t>(n->left_keys.size()));
  for (int k : n->left_keys) PutFixed32(dst, static_cast<uint32_t>(k));
  PutFixed32(dst, static_cast<uint32_t>(n->right_keys.size()));
  for (int k : n->right_keys) PutFixed32(dst, static_cast<uint32_t>(k));
  dst->push_back(static_cast<char>(n->join_type));
  PutFixed32(dst, static_cast<uint32_t>(n->group_cols.size()));
  for (int g : n->group_cols) PutFixed32(dst, static_cast<uint32_t>(g));
  PutFixed32(dst, static_cast<uint32_t>(n->aggs.size()));
  for (const AggSpec& a : n->aggs) {
    dst->push_back(static_cast<char>(a.kind));
    dst->push_back(a.arg ? 1 : 0);
    if (a.arg) PutExpr(dst, a.arg);
  }
  PutFixed32(dst, static_cast<uint32_t>(n->sort_keys.size()));
  for (const SortKey& k : n->sort_keys) {
    PutFixed32(dst, static_cast<uint32_t>(k.col));
    dst->push_back(k.desc ? 1 : 0);
  }
  PutFixed64(dst, static_cast<uint64_t>(n->limit));
  PutFixed32(dst, static_cast<uint32_t>(n->children.size()));
  for (const LogicalRef& c : n->children) PutPlanRec(dst, c);
}

Status GetPlanRec(ByteReader* r, size_t depth, LogicalRef* out) {
  if (depth > kMaxPlanDepth) return Status::Corruption("plan depth");
  uint8_t kind;
  IMCI_RETURN_NOT_OK(r->U8(&kind));
  // A Values leaf is local to the coordinator; it never goes on the wire.
  if (kind >= static_cast<uint8_t>(LogicalKind::kValues)) {
    return Status::Corruption("bad plan kind");
  }
  auto n = std::make_shared<LogicalNode>();
  n->kind = static_cast<LogicalKind>(kind);
  IMCI_RETURN_NOT_OK(r->U32(&n->table_id));
  uint32_t ncols;
  IMCI_RETURN_NOT_OK(r->Count(4, &ncols));
  n->cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    int32_t c;
    IMCI_RETURN_NOT_OK(r->I32(&c));
    n->cols.push_back(c);
  }
  uint8_t has_filter;
  IMCI_RETURN_NOT_OK(r->U8(&has_filter));
  if (has_filter) IMCI_RETURN_NOT_OK(GetExpr(r, &n->filter));
  int32_t part_col;
  IMCI_RETURN_NOT_OK(r->I32(&part_col));
  n->part_col = part_col;
  uint8_t part_flags;
  IMCI_RETURN_NOT_OK(r->U8(&part_flags));
  n->part_has_lo = (part_flags & 1) != 0;
  n->part_has_hi = (part_flags & 2) != 0;
  IMCI_RETURN_NOT_OK(r->I64(&n->part_lo));
  IMCI_RETURN_NOT_OK(r->I64(&n->part_hi));
  uint32_t nexprs;
  IMCI_RETURN_NOT_OK(r->Count(1, &nexprs));
  n->exprs.reserve(nexprs);
  for (uint32_t i = 0; i < nexprs; ++i) {
    ExprRef e;
    IMCI_RETURN_NOT_OK(GetExpr(r, &e));
    n->exprs.push_back(std::move(e));
  }
  for (std::vector<int>* keys : {&n->left_keys, &n->right_keys}) {
    uint32_t nk;
    IMCI_RETURN_NOT_OK(r->Count(4, &nk));
    keys->reserve(nk);
    for (uint32_t i = 0; i < nk; ++i) {
      int32_t k;
      IMCI_RETURN_NOT_OK(r->I32(&k));
      keys->push_back(k);
    }
  }
  uint8_t jt;
  IMCI_RETURN_NOT_OK(r->U8(&jt));
  if (jt > static_cast<uint8_t>(JoinType::kAnti)) {
    return Status::Corruption("bad join type");
  }
  n->join_type = static_cast<JoinType>(jt);
  uint32_t ngroups;
  IMCI_RETURN_NOT_OK(r->Count(4, &ngroups));
  n->group_cols.reserve(ngroups);
  for (uint32_t i = 0; i < ngroups; ++i) {
    int32_t g;
    IMCI_RETURN_NOT_OK(r->I32(&g));
    n->group_cols.push_back(g);
  }
  uint32_t naggs;
  IMCI_RETURN_NOT_OK(r->Count(2, &naggs));
  n->aggs.reserve(naggs);
  for (uint32_t i = 0; i < naggs; ++i) {
    uint8_t ak, has_arg;
    IMCI_RETURN_NOT_OK(r->U8(&ak));
    if (ak > static_cast<uint8_t>(AggKind::kSumInt)) {
      return Status::Corruption("bad agg kind");
    }
    IMCI_RETURN_NOT_OK(r->U8(&has_arg));
    AggSpec spec{static_cast<AggKind>(ak), nullptr};
    if (has_arg) IMCI_RETURN_NOT_OK(GetExpr(r, &spec.arg));
    n->aggs.push_back(std::move(spec));
  }
  uint32_t nsort;
  IMCI_RETURN_NOT_OK(r->Count(5, &nsort));
  n->sort_keys.reserve(nsort);
  for (uint32_t i = 0; i < nsort; ++i) {
    int32_t col;
    uint8_t desc;
    IMCI_RETURN_NOT_OK(r->I32(&col));
    IMCI_RETURN_NOT_OK(r->U8(&desc));
    n->sort_keys.push_back(SortKey{col, desc != 0});
  }
  IMCI_RETURN_NOT_OK(r->I64(&n->limit));
  uint32_t nchildren;
  IMCI_RETURN_NOT_OK(r->Count(1, &nchildren));
  n->children.reserve(nchildren);
  for (uint32_t i = 0; i < nchildren; ++i) {
    LogicalRef c;
    IMCI_RETURN_NOT_OK(GetPlanRec(r, depth + 1, &c));
    n->children.push_back(std::move(c));
  }
  *out = std::move(n);
  return Status::OK();
}

}  // namespace

void PutPlan(std::string* dst, const LogicalRef& plan) {
  PutPlanRec(dst, plan);
}

Status GetPlan(ByteReader* r, LogicalRef* out) {
  return GetPlanRec(r, 0, out);
}

}  // namespace imci
