#ifndef POLARDB_IMCI_TESTS_TEST_UTIL_H_
#define POLARDB_IMCI_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "workloads/tpch.h"

namespace imci {
namespace testing_util {

/// RNG seed for randomized/property tests: the IMCI_TEST_SEED env var wins
/// over the suite's default so a failure seen anywhere can be replayed
/// exactly (`IMCI_TEST_SEED=<seed> ctest -R Property`). Tests should log the
/// effective seed on failure (e.g. via SCOPED_TRACE).
inline uint64_t TestSeed(uint64_t default_seed) {
  const char* env = std::getenv("IMCI_TEST_SEED");
  if (env == nullptr || *env == '\0') return default_seed;
  return std::strtoull(env, nullptr, 0);
}

/// Iteration count for property tests: IMCI_TEST_ITERS scales the run
/// (shorter for smoke runs, longer for soak runs) without recompiling.
inline int TestIters(int default_iters) {
  const char* env = std::getenv("IMCI_TEST_ITERS");
  if (env == nullptr || *env == '\0') return default_iters;
  const long v = std::strtol(env, nullptr, 0);
  return v > 0 ? static_cast<int>(v) : default_iters;
}

/// `rows` as one batch of `types` (none when `rows` is empty): the input a
/// ValuesOp emits.
inline RowSet ToRowSet(const std::vector<DataType>& types,
                       const std::vector<Row>& rows) {
  RowSet set;
  set.types = types;
  if (rows.empty()) return set;
  Batch b = Batch::Make(types);
  for (const Row& r : rows) {
    for (size_t c = 0; c < r.size(); ++c) b.cols[c].AppendValue(r[c]);
  }
  b.rows = rows.size();
  set.batches.push_back(std::move(b));
  return set;
}

/// Normalizes a result set for engine-equivalence comparison: values are
/// rendered to strings (doubles rounded to 2 decimals to absorb summation
/// order differences) and rows sorted.
inline std::vector<std::string> Canonicalize(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    std::string line;
    for (const Value& v : r) {
      if (std::holds_alternative<double>(v)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f|", std::get<double>(v));
        line += buf;
      } else {
        line += ValueToString(v);
        line += '|';
      }
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The physical tree image (RowTable::Get) of every row of `expected` that
/// the table holds, for checking a replica after the boot-time undo pass
/// against its recovered model: an in-flight update or delete left in the
/// pages changes an image here, and an in-flight insert shows up in
/// row_count(). A snapshot read would resolve version chains and hide both.
inline std::vector<Row> TreeImages(const RowTable& table,
                                   const std::vector<Row>& expected) {
  std::vector<Row> out;
  out.reserve(expected.size());
  for (const Row& r : expected) {
    Row image;
    if (table.Get(AsInt(r[table.schema().pk_col()]), &image).ok()) {
      out.push_back(std::move(image));
    }
  }
  return out;
}

/// Builds a cluster pre-loaded with TPC-H data at the given scale factor.
inline std::unique_ptr<Cluster> MakeTpchCluster(double sf, int ros = 1,
                                                uint32_t group_size = 4096) {
  ClusterOptions opts;
  opts.initial_ro_nodes = ros;
  opts.ro.imci.row_group_size = group_size;
  opts.ro.exec_threads = 8;
  auto cluster = std::make_unique<Cluster>(opts);
  tpch::TpchGen gen(sf);
  for (auto& schema : gen.Schemas()) {
    if (!cluster->CreateTable(schema).ok()) return nullptr;
  }
  for (auto table : {tpch::kRegion, tpch::kNation, tpch::kSupplier,
                     tpch::kPart, tpch::kPartsupp, tpch::kCustomer,
                     tpch::kOrders, tpch::kLineitem}) {
    if (!cluster->BulkLoad(table, gen.Generate(table)).ok()) return nullptr;
  }
  if (!cluster->Open().ok()) return nullptr;
  return cluster;
}

}  // namespace testing_util
}  // namespace imci

#endif  // POLARDB_IMCI_TESTS_TEST_UTIL_H_
