#ifndef POLARDB_IMCI_COMMON_SCHEMA_H_
#define POLARDB_IMCI_COMMON_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace imci {

/// A column definition. `in_column_index` mirrors the paper's user interface
/// (§3.3): columns of a table can selectively be part of the in-memory column
/// index (the KEY COLUMN_INDEX(...) clause in Figure 3).
struct ColumnDef {
  std::string name;
  DataType type = DataType::kInt64;
  bool nullable = false;
  bool in_column_index = true;
};

/// Table schema. Every table has exactly one INT64 primary-key column
/// (`pk_col`); composite paper-workload keys (e.g. TPC-H lineitem) are packed
/// into a synthetic INT64 key by the workload generators. Secondary indexes
/// are declared by column ordinal.
class Schema {
 public:
  Schema() = default;
  Schema(TableId id, std::string name, std::vector<ColumnDef> cols,
         int pk_col = 0, std::vector<int> secondary_index_cols = {})
      : table_id_(id),
        name_(std::move(name)),
        cols_(std::move(cols)),
        pk_col_(pk_col),
        secondary_index_cols_(std::move(secondary_index_cols)) {}

  TableId table_id() const { return table_id_; }
  const std::string& name() const { return name_; }
  int num_columns() const { return static_cast<int>(cols_.size()); }
  const ColumnDef& column(int i) const { return cols_[i]; }
  const std::vector<ColumnDef>& columns() const { return cols_; }
  int pk_col() const { return pk_col_; }
  const std::vector<int>& secondary_index_cols() const {
    return secondary_index_cols_;
  }
  /// Whether column `i` is in the column index: the PK always is (needed by
  /// compaction and point reads); other columns opt in (§3.3).
  bool InColumnIndex(int i) const {
    return cols_[i].in_column_index || i == pk_col_;
  }

  /// Returns the ordinal of the named column, or -1.
  int ColumnIndex(const std::string& name) const {
    for (int i = 0; i < num_columns(); ++i) {
      if (cols_[i].name == name) return i;
    }
    return -1;
  }

 private:
  TableId table_id_ = 0;
  std::string name_;
  std::vector<ColumnDef> cols_;
  int pk_col_ = 0;
  std::vector<int> secondary_index_cols_;
};

/// Shared catalog mapping table ids to schemas. Phase#1 of 2P-COFFER looks up
/// schemas here by the table id recorded in page headers (§5.3: "workers get
/// table schema information by table IDs recorded on pages").
class Catalog {
 public:
  void Register(std::shared_ptr<const Schema> schema) {
    std::lock_guard<std::mutex> g(mu_);
    by_id_[schema->table_id()] = schema;
    by_name_[schema->name()] = schema;
  }

  std::shared_ptr<const Schema> Get(TableId id) const {
    std::lock_guard<std::mutex> g(mu_);
    auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : it->second;
  }

  std::shared_ptr<const Schema> GetByName(const std::string& name) const {
    std::lock_guard<std::mutex> g(mu_);
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second;
  }

  std::vector<std::shared_ptr<const Schema>> All() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<std::shared_ptr<const Schema>> v;
    v.reserve(by_id_.size());
    for (auto& [id, s] : by_id_) v.push_back(s);
    return v;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<TableId, std::shared_ptr<const Schema>> by_id_;
  std::unordered_map<std::string, std::shared_ptr<const Schema>> by_name_;
};

}  // namespace imci

#endif  // POLARDB_IMCI_COMMON_SCHEMA_H_
