#ifndef POLARDB_IMCI_WORKLOADS_TPCH_INTERNAL_H_
#define POLARDB_IMCI_WORKLOADS_TPCH_INTERNAL_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "workloads/tpch.h"

namespace imci {
namespace tpch {

/// Helper for building scans with named columns; `c("l_shipdate")` returns a
/// column reference positioned at that name's index in the scan output.
struct ScanDef {
  std::shared_ptr<const Schema> schema;
  std::vector<int> cols;
  std::vector<std::string> names;

  int at(const std::string& name) const {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  ExprRef c(const std::string& name) const {
    const int i = at(name);
    return Col(i, schema->column(cols[i]).type);
  }

  LogicalRef Plan(ExprRef filter = nullptr) const {
    return LScan(schema->table_id(), cols, std::move(filter));
  }
};

inline ScanDef S(const Catalog& cat, const char* table,
                 std::initializer_list<const char*> names) {
  ScanDef d;
  d.schema = cat.GetByName(table);
  for (const char* n : names) {
    d.names.emplace_back(n);
    d.cols.push_back(d.schema->ColumnIndex(n));
  }
  return d;
}

/// Column reference into a joined/derived row layout by absolute position.
inline ExprRef CC(int idx, DataType t) { return Col(idx, t); }

// Per-query builders (some need `exec` for scalar subqueries).
Status RunQ1to11(int q, const Catalog& cat, const ExecFn& exec,
                 std::vector<Row>* out);
Status RunQ12to22(int q, const Catalog& cat, const ExecFn& exec,
                  std::vector<Row>* out);

}  // namespace tpch
}  // namespace imci

#endif  // POLARDB_IMCI_WORKLOADS_TPCH_INTERNAL_H_
