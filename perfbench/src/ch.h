// CH-benCHmark plumbing shared by the oltp_* and htap_fresh workloads:
// the 8-warehouse data set, cluster set-up, the TPC-C transaction mix, and
// the correctness gates (row aggregates on the RW against column aggregates
// on the RO, and acknowledged commits against the database's own counts).
#ifndef IMCI_PERFBENCH_CH_H_
#define IMCI_PERFBENCH_CH_H_

#include <array>
#include <memory>
#include <vector>

#include "bench.h"
#include "workloads/chbench.h"

namespace perfbench {

constexpr int kWarehouses = 8;
constexpr int kItemsPerWarehouse = 1000;

/// The generated CH-benCH tables of one seed (the cluster receives copies).
struct ChData {
  explicit ChData(uint64_t seed);
  imci::chbench::ChBench bench;
  std::vector<std::pair<imci::TableId, std::vector<imci::Row>>> tables;
  /// Base values the commit gate counts from.
  int64_t base_next_o_id_sum = 0;
  int64_t base_next_del_o_id_sum = 0;
  int64_t base_orders = 0;
};

/// Builds a cluster with one RO over the data set, `reps` times (each one
/// torn down before the next), keeping the last, and records the median
/// set-up time. False (with the run failed) when set-up fails.
bool BuildChCluster(const ChData& data, size_t rw_pool_capacity, int reps,
                    std::unique_ptr<imci::Cluster>* out, RunResult* r);

enum class TxnKind { kNewOrder = 0, kPayment = 1, kDelivery = 2 };
constexpr const char* kTxnNames[] = {"neworder", "payment", "delivery"};

/// The CH-benCH TPC-C mix: 48% NewOrder, 43% Payment, 9% Delivery.
TxnKind PickTxn(imci::Rng* rng);

/// Outcome of one client transaction, retried on lock timeouts (Busy).
struct TxnOutcome {
  imci::Status status;
  uint64_t busy_retries = 0;
  /// OK, or TPC-C's intended 1% NewOrder rollback ("invalid item").
  bool succeeded() const {
    return status.ok() ||
           (status.IsAborted() && status.message() == "invalid item");
  }
};

/// Runs one transaction of `kind`, with a span around each ChBench call.
TxnOutcome RunTxn(imci::chbench::ChBench* bench, imci::Cluster* cluster,
                  TxnKind kind, imci::Rng* rng);

/// Acknowledged (status OK) transactions per kind.
using AckCounts = std::array<uint64_t, 3>;

/// Catches the RO up, then checks that RW row aggregates equal RO column
/// aggregates and that acknowledged commits match both the database's
/// counts and the TransactionManager's commit count since `commits0`.
/// Returns the catch-up time in ms.
double CheckChGates(const ChData& data, imci::Cluster* cluster,
                    const AckCounts& acked, uint64_t commits0, RunResult* r);

/// Engine counters of the commit and replication paths, read before and
/// after the measured phase.
struct CommitCounters {
  uint64_t commits, batches, batched, log_bytes, page_reads;
  uint64_t pool_hits, pool_misses, versions, applied_ops, compactions;
  static CommitCounters Read(imci::Cluster* c);
};

/// Per-layer metrics of the row store, log, redo, PolarFs and replication
/// from the counter deltas over `txns` transactions in `elapsed_s`.
void AddCommitPathLayers(const CommitCounters& c0, const CommitCounters& c1,
                         double elapsed_s, uint64_t txns, uint64_t busy,
                         uint64_t lsn_delay_max, double catchup_ms,
                         imci::Cluster* cluster, RunResult* r);

}  // namespace perfbench

#endif  // IMCI_PERFBENCH_CH_H_
