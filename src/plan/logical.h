#ifndef POLARDB_IMCI_PLAN_LOGICAL_H_
#define POLARDB_IMCI_PLAN_LOGICAL_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "rowstore/engine.h"

namespace imci {

/// Logical plan nodes — the engine-neutral query representation that the
/// optimizer routes (§6.1) and lowers to either execution engine (§6.2:
/// "instead of top-down constructing a column-oriented execution plan,
/// PolarDB-IMCI transforms it from the row-oriented one"; here both physical
/// plans are lowered from the same logical plan, preserving behaviour —
/// implicit casts, error surfaces — across engines by construction).
enum class LogicalKind : uint8_t {
  kScan, kFilter, kProject, kJoin, kAgg, kSort, kValues,
};

struct LogicalNode;
using LogicalRef = std::shared_ptr<LogicalNode>;

struct LogicalNode {
  LogicalKind kind;
  std::vector<LogicalRef> children;

  // kScan
  TableId table_id = 0;
  std::vector<int> cols;  // schema ordinals, defining output positions
  ExprRef filter;         // over output positions
  // kScan fragment partition (distributed execution): when part_col >= 0 the
  // scan is restricted to rows whose part_col value (a schema ordinal of an
  // integer column: a PK, join key or group key) lies in [part_lo, part_hi],
  // each bound enabled by its flag. A NULL value belongs to the range
  // without a low bound. Set only on fragment plans cut by the query
  // coordinator.
  int part_col = -1;
  bool part_has_lo = false, part_has_hi = false;
  int64_t part_lo = 0, part_hi = 0;

  // kFilter / kProject
  std::vector<ExprRef> exprs;

  // kJoin: output = left columns then right columns; the RIGHT child is the
  // hash-build side (queries put the smaller input on the right).
  std::vector<int> left_keys, right_keys;
  JoinType join_type = JoinType::kInner;

  // kAgg
  std::vector<int> group_cols;
  std::vector<AggSpec> aggs;

  // kSort (limit < 0: keep every row)
  std::vector<SortKey> sort_keys;
  int64_t limit = -1;

  // kValues: the coordinator's local leaf over the fragment outputs; it
  // never goes on the fragment wire.
  RowSet values;
};

LogicalRef LScan(TableId table, std::vector<int> cols, ExprRef filter = nullptr);
LogicalRef LFilter(LogicalRef child, ExprRef pred);
LogicalRef LProject(LogicalRef child, std::vector<ExprRef> exprs);
LogicalRef LJoin(LogicalRef left_probe, LogicalRef right_build,
                 std::vector<int> left_keys, std::vector<int> right_keys,
                 JoinType type = JoinType::kInner);
LogicalRef LAgg(LogicalRef child, std::vector<int> group_cols,
                std::vector<AggSpec> aggs);
LogicalRef LSort(LogicalRef child, std::vector<SortKey> keys,
                 int64_t limit = -1);
LogicalRef LValues(std::vector<DataType> types);

/// Whether a column-engine scan of `schema` can read the scan node's columns
/// and partition column: InvalidArgument for an ordinal past the schema,
/// NotSupported for a column outside the column index (§3.3;
/// RoNode::Execute runs such a plan on the row engine).
Status CheckColumnScan(const Schema& schema, const LogicalNode& scan);

/// Lowers to the column-based engine (vectorized scan over column indexes);
/// every scan must pass CheckColumnScan. A join
/// whose build child is a grouped aggregation keyed on the join keys runs
/// its probe side first (HashJoinOp's `probe_first`), so the probe's keys
/// filter the aggregation's scans.
Status LowerToColumnPlan(const LogicalRef& node, const ImciStore* imci,
                         PhysOpRef* out);

/// Lowers to the row-based engine (B+tree scans; index hints derived from
/// scan predicates when an index exists).
Status LowerToRowPlan(const LogicalRef& node, const RowStoreEngine* rows,
                      PhysOpRef* out);

/// Number of scan nodes / referenced tables (diagnostics, routing).
void CollectScans(const LogicalRef& node, std::vector<const LogicalNode*>* out);

}  // namespace imci

#endif  // POLARDB_IMCI_PLAN_LOGICAL_H_
