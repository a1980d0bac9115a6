#ifndef POLARDB_IMCI_PLAN_OPTIMIZER_H_
#define POLARDB_IMCI_PLAN_OPTIMIZER_H_

#include <map>
#include <memory>
#include <vector>

#include "plan/logical.h"

namespace imci {

/// Per-table statistics gathered by random sampling of the column index's
/// Pack metas (§6.2: "collects statistics through random sampling").
struct TableStats {
  uint64_t row_count = 0;
  struct ColStats {
    bool has_range = false;
    int64_t min = 0, max = 0;
    uint64_t ndv = 1;  // distinct-value estimate from the pack samples
  };
  std::vector<ColStats> cols;
};

/// Statistics registry for one node.
class StatsCollector {
 public:
  /// Samples up to `sample_groups` row groups per index.
  void Collect(const ImciStore& store, int sample_groups = 8);
  void CollectRowStore(const RowStoreEngine& engine);
  const TableStats* Get(TableId id) const;
  void Put(TableId id, TableStats stats) { stats_[id] = std::move(stats); }

 private:
  std::map<TableId, TableStats> stats_;
};

/// Estimated predicate selectivity in [0,1] using range statistics; unknown
/// predicates get conservative defaults.
double EstimateSelectivity(const ExprRef& filter, const TableStats* stats,
                           const std::vector<int>& scan_cols);

/// Cardinality/cost estimates for a logical plan.
struct PlanCost {
  double rows_out = 0;      // estimated output cardinality
  double rows_touched = 0;  // rows the row engine would materialize
  double rows_scanned = 0;  // rows of every scanned table: the column
                            // engine reads all rows of unpruned groups
};
PlanCost EstimatePlan(const LogicalRef& node, const StatsCollector& stats);

enum class EngineChoice { kRowEngine, kColumnEngine };

/// Intra-node routing (§6.1): assume the query runs on the row engine; if
/// the estimated row-engine cost (rows it must touch through B+tree access
/// paths) exceeds the threshold, generate the column-oriented plan instead.
struct RoutingDecision {
  EngineChoice engine;
  double row_cost = 0;
};
RoutingDecision RouteQuery(const LogicalRef& plan, const StatsCollector& stats,
                           double row_cost_threshold = 20000.0);

/// Default scan rows per worker (ChooseDop) and per fragment
/// (CoordinatorOptions::rows_per_fragment).
inline constexpr double kScanRowsPerWorker = 65536.0;

/// Degree-of-parallelism choice for the column engine's morsel executor:
/// scale the worker count to the scan volume (PlanCost::rows_scanned; a
/// selective filter does not shrink what the scan reads) so a scan of small
/// tables stays serial (no fan-out fixed cost, no pool tokens consumed)
/// while a TPC-H fact-table scan asks for the whole budget. Returns a value in
/// [1, max_dop]; the RO node then shrinks the request to its per-query
/// token grant. The coordinator sizes its fan-out with it too (one fragment
/// per `rows_per_worker` rows, at most `max_dop` participants).
int ChooseDop(const LogicalRef& plan, const StatsCollector& stats,
              int max_dop, double rows_per_worker = kScanRowsPerWorker);

}  // namespace imci

#endif  // POLARDB_IMCI_PLAN_OPTIMIZER_H_
