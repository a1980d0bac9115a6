#include "plan/logical.h"

#include <algorithm>

namespace imci {

namespace {
LogicalRef NewNode(LogicalKind kind) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = kind;
  return n;
}
}  // namespace

LogicalRef LScan(TableId table, std::vector<int> cols, ExprRef filter) {
  auto n = NewNode(LogicalKind::kScan);
  n->table_id = table;
  n->cols = std::move(cols);
  n->filter = std::move(filter);
  return n;
}

LogicalRef LFilter(LogicalRef child, ExprRef pred) {
  auto n = NewNode(LogicalKind::kFilter);
  n->children = {std::move(child)};
  n->exprs = {std::move(pred)};
  return n;
}

LogicalRef LProject(LogicalRef child, std::vector<ExprRef> exprs) {
  auto n = NewNode(LogicalKind::kProject);
  n->children = {std::move(child)};
  n->exprs = std::move(exprs);
  return n;
}

LogicalRef LJoin(LogicalRef left_probe, LogicalRef right_build,
                 std::vector<int> left_keys, std::vector<int> right_keys,
                 JoinType type) {
  auto n = NewNode(LogicalKind::kJoin);
  n->children = {std::move(left_probe), std::move(right_build)};
  n->left_keys = std::move(left_keys);
  n->right_keys = std::move(right_keys);
  n->join_type = type;
  return n;
}

LogicalRef LAgg(LogicalRef child, std::vector<int> group_cols,
                std::vector<AggSpec> aggs) {
  auto n = NewNode(LogicalKind::kAgg);
  n->children = {std::move(child)};
  n->group_cols = std::move(group_cols);
  n->aggs = std::move(aggs);
  return n;
}

LogicalRef LSort(LogicalRef child, std::vector<SortKey> keys, int64_t limit) {
  auto n = NewNode(LogicalKind::kSort);
  n->children = {std::move(child)};
  n->sort_keys = std::move(keys);
  n->limit = limit;
  return n;
}

LogicalRef LValues(std::vector<DataType> types) {
  auto n = NewNode(LogicalKind::kValues);
  n->values.types = std::move(types);
  return n;
}

void CollectScans(const LogicalRef& node,
                  std::vector<const LogicalNode*>* out) {
  if (!node) return;
  if (node->kind == LogicalKind::kScan) out->push_back(node.get());
  for (const LogicalRef& c : node->children) CollectScans(c, out);
}

namespace {

/// Whether a join's build child is a grouped aggregation whose group
/// columns carry every build key: the decorrelated-subquery shape, where
/// the probe side runs first so its keys filter the aggregation's input.
bool BuildIsKeyedAgg(const LogicalNode& join) {
  const LogicalNode& agg = *join.children[1];
  const int G = static_cast<int>(agg.group_cols.size());
  return agg.kind == LogicalKind::kAgg && G > 0 &&
         std::all_of(join.right_keys.begin(), join.right_keys.end(),
                     [G](int k) { return k >= 0 && k < G; });
}

/// `probe_first_ok`: the column engine, whose scans apply key filters; the
/// row engine ignores them, so its joins always run the build side first.
template <typename ScanLower>
Status Lower(const LogicalRef& node, const ScanLower& scan_lower,
             bool probe_first_ok, PhysOpRef* out) {
  auto lower = [&](const LogicalRef& child, PhysOpRef* o) {
    return Lower(child, scan_lower, probe_first_ok, o);
  };
  switch (node->kind) {
    case LogicalKind::kScan:
      return scan_lower(*node, out);
    case LogicalKind::kFilter: {
      PhysOpRef child;
      IMCI_RETURN_NOT_OK(lower(node->children[0], &child));
      *out = std::make_shared<FilterOp>(std::move(child), node->exprs[0]);
      return Status::OK();
    }
    case LogicalKind::kProject: {
      PhysOpRef child;
      IMCI_RETURN_NOT_OK(lower(node->children[0], &child));
      *out = std::make_shared<ProjectOp>(std::move(child), node->exprs);
      return Status::OK();
    }
    case LogicalKind::kJoin: {
      PhysOpRef probe, build;
      IMCI_RETURN_NOT_OK(lower(node->children[0], &probe));
      IMCI_RETURN_NOT_OK(lower(node->children[1], &build));
      *out = std::make_shared<HashJoinOp>(
          std::move(build), std::move(probe), node->right_keys,
          node->left_keys, node->join_type,
          probe_first_ok && BuildIsKeyedAgg(*node));
      return Status::OK();
    }
    case LogicalKind::kAgg: {
      PhysOpRef child;
      IMCI_RETURN_NOT_OK(lower(node->children[0], &child));
      *out = std::make_shared<HashAggOp>(std::move(child), node->group_cols,
                                         node->aggs);
      return Status::OK();
    }
    case LogicalKind::kSort: {
      PhysOpRef child;
      IMCI_RETURN_NOT_OK(lower(node->children[0], &child));
      *out = std::make_shared<SortOp>(std::move(child), node->sort_keys,
                                      node->limit);
      return Status::OK();
    }
    case LogicalKind::kValues:
      *out = std::make_shared<ValuesOp>(node->values);
      return Status::OK();
  }
  return Status::NotSupported("logical kind");
}

}  // namespace

Status CheckColumnScan(const Schema& schema, const LogicalNode& scan) {
  std::vector<int> cols = scan.cols;
  if (scan.part_col >= 0) cols.push_back(scan.part_col);
  for (int c : cols) {
    if (c < 0 || c >= schema.num_columns()) {
      return Status::InvalidArgument("scan column out of range");
    }
    if (!schema.InColumnIndex(c)) {
      return Status::NotSupported("scan column outside the column index");
    }
  }
  return Status::OK();
}

Status LowerToColumnPlan(const LogicalRef& node, const ImciStore* imci,
                         PhysOpRef* out) {
  auto scan_lower = [imci](const LogicalNode& scan, PhysOpRef* o) -> Status {
    ColumnIndex* index = imci->GetIndex(scan.table_id);
    if (index == nullptr) return Status::NotFound("column index");
    IMCI_RETURN_NOT_OK(CheckColumnScan(index->schema(), scan));
    ScanPartition part;
    part.col = scan.part_col;
    part.has_lo = scan.part_has_lo;
    part.has_hi = scan.part_has_hi;
    part.lo = scan.part_lo;
    part.hi = scan.part_hi;
    *o = std::make_shared<ColumnScanOp>(index, scan.cols, scan.filter, part);
    return Status::OK();
  };
  return Lower(node, scan_lower, /*probe_first_ok=*/true, out);
}

Status LowerToRowPlan(const LogicalRef& node, const RowStoreEngine* rows,
                      PhysOpRef* out) {
  auto scan_lower = [rows](const LogicalNode& scan, PhysOpRef* o) -> Status {
    const RowTable* table = rows->GetTable(scan.table_id);
    if (table == nullptr) return Status::NotFound("row table");
    const int width = table->schema().num_columns();
    if (std::any_of(scan.cols.begin(), scan.cols.end(),
                    [width](int c) { return c < 0 || c >= width; })) {
      return Status::InvalidArgument("scan column out of range");
    }
    // Fragment plans are column-engine only; refuse rather than silently
    // returning unpartitioned rows.
    if (scan.part_col >= 0) {
      return Status::NotSupported("partitioned scan on row engine");
    }
    // Access-path selection: use an index when the predicate bounds an
    // indexed column (the paper's "indexes built in row-based PolarDB were
    // more efficient to handle point queries", §8.2 on Q2).
    RowScanOp::IndexHint hint;
    std::vector<IntBound> bounds;
    ExtractIntBounds(scan.filter, &bounds);
    for (const IntBound& b : bounds) {
      if (b.col < 0 || b.col >= static_cast<int>(scan.cols.size())) continue;
      if (!b.has_lo || !b.has_hi) continue;
      const int schema_col = scan.cols[b.col];
      if (schema_col == table->schema().pk_col() ||
          table->HasIndexOn(schema_col)) {
        hint = RowScanOp::IndexHint(schema_col, b.lo, b.hi);
        break;
      }
    }
    *o = std::make_shared<RowScanOp>(table, scan.cols, scan.filter, hint);
    return Status::OK();
  };
  return Lower(node, scan_lower, /*probe_first_ok=*/false, out);
}

}  // namespace imci
