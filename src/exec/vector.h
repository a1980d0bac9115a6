#ifndef POLARDB_IMCI_EXEC_VECTOR_H_
#define POLARDB_IMCI_EXEC_VECTOR_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace imci {

/// A column of values inside an execution batch. Numeric lanes are dense
/// arrays so the expression kernels compile to tight (auto-vectorizable,
/// SIMD) loops; nulls are a parallel byte mask. The string lane is flat:
/// row i is bytes [offs[i], offs[i+1]), appended in row order, and a NULL
/// row holds "". `offs` is empty or holds size()+1 offsets.
struct ColumnVector {
  DataType type = DataType::kInt64;
  std::vector<int64_t> ints;
  std::vector<double> dbls;
  std::vector<uint32_t> offs;
  std::string bytes;
  std::vector<uint8_t> nulls;

  explicit ColumnVector(DataType t = DataType::kInt64) : type(t) {}

  size_t size() const { return nulls.size(); }

  std::string_view str(size_t i) const {
    return {bytes.data() + offs[i], offs[i + 1] - offs[i]};
  }

  void Reserve(size_t n) {
    nulls.reserve(n);
    if (type == DataType::kDouble) {
      dbls.reserve(n);
    } else if (type == DataType::kString) {
      offs.reserve(n + 1);
    } else {
      ints.reserve(n);
    }
  }

  /// Sets the row count to `n`; new rows are non-NULL 0, 0.0 or "".
  void Resize(size_t n) {
    nulls.resize(n, 0);
    if (type == DataType::kDouble) {
      dbls.resize(n, 0.0);
    } else if (type == DataType::kString) {
      const uint32_t end = offs.empty() ? 0 : offs.back();
      offs.resize(n + 1, end);
      bytes.resize(offs[n]);
    } else {
      ints.resize(n, 0);
    }
  }

  /// Empties the string lane, keeping its capacity.
  void ClearStrings() {
    offs.assign(1, 0);
    bytes.clear();
  }

  /// Appends `s` to the string lane only; the caller sets the row's NULL
  /// flag. Throws std::length_error past the 32-bit offsets.
  void PushStr(std::string_view s) {
    if (offs.empty()) offs.push_back(0);
    if (s.size() > UINT32_MAX - bytes.size()) {
      throw std::length_error("string lane passes 4 GiB");
    }
    bytes.append(s);
    offs.push_back(static_cast<uint32_t>(bytes.size()));
  }

  void AppendNull() {
    nulls.push_back(1);
    if (type == DataType::kDouble) {
      dbls.push_back(0.0);
    } else if (type == DataType::kString) {
      PushStr({});
    } else {
      ints.push_back(0);
    }
  }

  void AppendInt(int64_t v) {
    nulls.push_back(0);
    ints.push_back(v);
  }
  void AppendDouble(double v) {
    nulls.push_back(0);
    dbls.push_back(v);
  }
  void AppendString(std::string_view v) {
    nulls.push_back(0);
    PushStr(v);
  }

  void AppendValue(const Value& v) {
    if (IsNull(v)) {
      AppendNull();
    } else if (type == DataType::kDouble) {
      AppendDouble(NumericValue(v));
    } else if (type == DataType::kString) {
      AppendString(AsString(v));
    } else {
      AppendInt(AsInt(v));
    }
  }

  Value GetValue(size_t i) const {
    if (nulls[i]) return Value{};
    if (type == DataType::kDouble) return dbls[i];
    if (type == DataType::kString) return std::string(str(i));
    return ints[i];
  }

  /// Numeric view of row i (integers widen); caller guarantees non-null.
  double NumericAt(size_t i) const {
    return type == DataType::kDouble ? dbls[i]
                                     : static_cast<double>(ints[i]);
  }

  /// Calls `fn(at)`, `at(i)` reading row i of this numeric vector as a T
  /// (integers widen to double as in NumericAt), with the lane picked once
  /// instead of per row.
  template <typename T, typename Fn>
  void WithLane(Fn fn) const {
    if (type == DataType::kDouble) {
      const double* v = dbls.data();
      fn([v](size_t i) { return static_cast<T>(v[i]); });
    } else {
      const int64_t* v = ints.data();
      fn([v](size_t i) { return static_cast<T>(v[i]); });
    }
  }
};

/// A batch of rows in columnar layout — the unit that streams through the
/// pipeline ("batch-at-a-time" operators, §6.3). Default batch height 2048.
struct Batch {
  static constexpr size_t kDefaultCapacity = 2048;
  std::vector<ColumnVector> cols;
  size_t rows = 0;

  int num_cols() const { return static_cast<int>(cols.size()); }

  static Batch Make(const std::vector<DataType>& types) {
    Batch b;
    b.cols.reserve(types.size());
    for (DataType t : types) b.cols.emplace_back(t);
    return b;
  }
};

/// A fully materialized operator result: the intermediate representation
/// between blocking operators.
struct RowSet {
  std::vector<DataType> types;
  std::vector<Batch> batches;

  uint64_t TotalRows() const {
    uint64_t n = 0;
    for (const Batch& b : batches) n += b.rows;
    return n;
  }
};

}  // namespace imci

#endif  // POLARDB_IMCI_EXEC_VECTOR_H_
