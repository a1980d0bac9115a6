#ifndef POLARDB_IMCI_EXEC_OPERATORS_H_
#define POLARDB_IMCI_EXEC_OPERATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/expr.h"
#include "exec/vector.h"
#include "imci/column_index.h"
#include "rowstore/table.h"

namespace imci {

/// Per-query execution context: worker pool, intra-query parallelism degree
/// and the pinned read view (§6.4 consistency).
struct ExecContext {
  ThreadPool* pool = nullptr;
  /// Intra-query degree of parallelism. 1 is the reference serial path;
  /// every parallel operator must produce results equivalent to it.
  int parallelism = 1;
  Vid read_vid = kMaxVid;
  /// Pack min/max pruning toggle (pruning ablation and the "pure columnar
  /// comparator" configuration of the Figure 9 bench).
  bool pruning_enabled = true;
  /// Morsel size for column scans, in row groups: workers claim this many
  /// consecutive row groups per dispatch. Row groups are the natural split
  /// (pruning metadata and visibility bitmaps are group-granular), so a
  /// morsel never cuts a group in half.
  int morsel_row_groups = 1;
};

/// The keys of the side a hash join ran first (defined in operators.cc).
class KeySet;

/// A semi-join reduction filter, as an operator hands it to its child: a
/// row of the child's output whose values in `cols` (output ordinals, one
/// per key column) image to no key of `keys` never joins, so the child may
/// drop it. Dropping is never required; a filter only removes rows the join
/// that made it would discard.
struct KeyFilter {
  const KeySet* keys = nullptr;
  std::vector<int> cols;
};
/// The filters an operator runs under, nearest join first.
using KeyFilters = std::vector<KeyFilter>;

/// Physical operator base. Operators run batch-at-a-time internally and
/// materialize their result (RowSet) as the boundary between pipelines;
/// scans/aggregations/joins parallelize internally (§6.3 parallel operators).
///
/// ExecuteFiltered is the semi-join reduction hook: Execute under `filters`.
/// Only HashJoinOp and HashAggOp pass filters on, mapping their columns to
/// their children's and dropping the filters they cannot map, and only
/// ColumnScanOp applies them. The default drops them, so every other
/// operator (FilterOp, ProjectOp, SortOp, RowScanOp, ValuesOp) returns
/// every row and the row engine stays the filter-free reference.
class PhysOp {
 public:
  virtual ~PhysOp() = default;
  virtual Status Execute(ExecContext* ctx, RowSet* out) = 0;
  virtual Status ExecuteFiltered(ExecContext* ctx, const KeyFilters& filters,
                                 RowSet* out) {
    (void)filters;
    return Execute(ctx, out);
  }
  const std::vector<DataType>& out_types() const { return out_types_; }

 protected:
  std::vector<DataType> out_types_;
};

using PhysOpRef = std::shared_ptr<PhysOp>;

/// Removes rows where mask==0 (in place helper shared by operators).
void CompactBatch(Batch* batch, const std::vector<uint8_t>& mask);

// --- Scans -------------------------------------------------------------

/// Value-range restriction for distributed fragment scans: the scan emits
/// only rows whose `col` (schema ordinal of an integer key) lies within
/// [lo, hi], with either bound optionally open; a NULL key belongs to the
/// range without a low bound. Ranges are over key *values*, not RIDs or
/// row-group indexes — Phase#2 parallel apply and per-node
/// compaction make physical layout node-dependent, so value ranges are the
/// only partitioning that is disjoint-and-complete across replicas. This is
/// a correctness restriction, independent of the pruning toggle; Pack
/// min/max metadata still skips whole groups outside the range.
struct ScanPartition {
  int col = -1;  // -1: unpartitioned
  bool has_lo = false, has_hi = false;
  int64_t lo = 0, hi = 0;
};

/// Vectorized scan over a column index (§6.3 TableScan): group-granular
/// morsels fetched concurrently in a non-interleaved manner, Pack min/max
/// pruning (§4.1 Pack Meta), visibility filtering at the pinned read view,
/// and pushed-down predicate evaluation. Output columns are the requested
/// schema ordinals, in order.
///
/// A group is scanned through a selection vector of row offsets, with late
/// materialization: one pass over the VID maps selects the visible rows of
/// the partition; each simple filter conjunct (column vs constant, integer
/// column vs integer column, BETWEEN, IN, LIKE) then runs as a typed kernel
/// on the pack lanes and shrinks the selection in place; every other
/// conjunct is a residual, evaluated through Expr over just its own columns
/// for the rows still selected. Key filters run last, nearest join first:
/// a single INT64-lane key as a lane kernel (the set's min/max, then one
/// bit of the set's bitmap when it is dense, else a table lookup), any
/// other key through gathered key images. A key filter that keeps more
/// than 3/4 of the first 4096 rows it tests stops running for the rest of
/// the query. Only the survivors are copied out.
class ColumnScanOp : public PhysOp {
 public:
  /// `filter` refers to *output* ordinals (positions in `cols`).
  ColumnScanOp(ColumnIndex* index, std::vector<int> cols, ExprRef filter,
               ScanPartition part = ScanPartition());

  Status Execute(ExecContext* ctx, RowSet* out) override {
    return ExecuteFiltered(ctx, {}, out);
  }
  Status ExecuteFiltered(ExecContext* ctx, const KeyFilters& filters,
                         RowSet* out) override;

  uint64_t groups_pruned() const { return groups_pruned_; }
  uint64_t groups_scanned() const { return groups_scanned_; }

 private:
  /// A filter conjunct that runs on the pack lanes.
  struct Kernel {
    ExprKind op = ExprKind::kEq;  // kEq..kGe, kBetween, kIn, kLike, kNotLike
    int pack = -1;                // pack tested
    int rhs_pack = -1;            // integer pack right of a comparison, or -1
    /// The constants, typed as the lane the test runs in: INT64 (integer
    /// family), DOUBLE or STRING. One for a comparison, lo and hi for
    /// BETWEEN, the set for IN, the pattern for LIKE.
    ColumnVector args;
  };
  /// A conjunct evaluated through Expr, and the output ordinals it reads.
  struct Residual {
    ExprRef expr;
    std::vector<int> cols;
  };

  bool GroupPrunable(const RowGroup& g) const;
  bool PartitionSkipsGroup(const RowGroup& g) const;
  bool ToKernel(const ExprRef& conjunct, Kernel* k) const;
  void SelectVisible(const RowGroup& g, uint32_t used, Vid read_vid,
                     std::vector<uint32_t>* sel) const;
  Status ApplyResidual(const Residual& r, const RowGroup& g,
                       std::vector<uint32_t>* sel) const;
  void ApplyKeyFilter(const KeyFilter& f, const RowGroup& g,
                      std::vector<uint32_t>* sel) const;
  Status ScanGroup(const RowGroup& g, uint32_t used, Vid read_vid,
                   const KeyFilters& filters, RowSet* out) const;

  ColumnIndex* index_;
  std::vector<int> cols_;   // schema ordinals
  std::vector<int> packs_;  // pack ordinals, parallel to cols_
  std::vector<IntBound> bounds_;  // filter's integer bounds, for pruning
  std::vector<Kernel> kernels_;      // in filter order
  std::vector<Residual> residuals_;  // in filter order
  ScanPartition part_;
  int part_pack_ = -1;
  mutable std::atomic<uint64_t> groups_pruned_{0};
  mutable std::atomic<uint64_t> groups_scanned_{0};
};

/// Row-store scan for the row-based engine: walks the B+tree in PK order
/// with early materialization (the full row image is decoded from the leaf
/// even if few columns are needed — the read amplification the paper's §8.2
/// attributes the row store's OLAP slowness to). Optionally uses a
/// secondary-index or PK range instead of a full scan.
class RowScanOp : public PhysOp {
 public:
  struct IndexHint {
    IndexHint() : col(-1), lo(0), hi(0) {}
    IndexHint(int c, int64_t l, int64_t h) : col(c), lo(l), hi(h) {}
    int col;  // -1: none; pk_col: PK range; else secondary index
    int64_t lo, hi;
  };

  RowScanOp(const RowTable* table, std::vector<int> cols, ExprRef filter,
            IndexHint hint = IndexHint());

  Status Execute(ExecContext* ctx, RowSet* out) override;

 private:
  void AppendRow(const Row& row, Batch* batch) const;

  const RowTable* table_;
  std::vector<int> cols_;
  ExprRef filter_;
  IndexHint hint_;
};

// --- Relational operators ----------------------------------------------

/// Keeps the rows `pred` is true for. Key filters stop here.
class FilterOp : public PhysOp {
 public:
  FilterOp(PhysOpRef child, ExprRef pred);
  Status Execute(ExecContext* ctx, RowSet* out) override;

 private:
  PhysOpRef child_;
  ExprRef pred_;
};

/// Evaluates `exprs` over each batch, batches in parallel. Key filters
/// stop here.
class ProjectOp : public PhysOp {
 public:
  ProjectOp(PhysOpRef child, std::vector<ExprRef> exprs);
  Status Execute(ExecContext* ctx, RowSet* out) override;

 private:
  PhysOpRef child_;
  std::vector<ExprRef> exprs_;
};

enum class JoinType { kInner, kLeft, kSemi, kAnti };

/// In-memory hash join (§6.3): the build side is partitioned and built
/// lock-free (one partition per worker), probes run in parallel over probe
/// batches. Inner and left-outer emit probe columns followed by build
/// columns; semi/anti emit probe columns only; a probe row's matches come
/// in build order. Keys of any types and count are int64-word images in
/// open-addressing tables, matches stored CSR per partition. Each key pair
/// is imaged in the lane Cmp compares it in (an INT/DOUBLE pair as DOUBLE);
/// a STRING keyed against a number fails Execute with InvalidArgument. NULL
/// keys never match.
///
/// A probe batch first lists its output rows: each probe row with the build
/// (batch, row) it pairs with, or a no-match mark for a left join's padding.
/// Each output column is then gathered from that list in one typed loop,
/// NULL rows holding 0, 0.0 or "" in their lane.
///
/// Dense keys: when the key is one integer column whose non-NULL build
/// values span at most 4 slots per non-NULL build row (span + 2 <= 4 *
/// rows, and under 2^26), the build images and hashes nothing. It is a
/// counting sort of its (batch, row) refs into the same CSR form over
/// slots key - min, and a probe reads its key lane directly: a NULL or
/// out-of-range key matches nothing. Its key set is a bitmap of the slots
/// that hold rows. Output is the same on either path.
///
/// Semi-join reduction: the side that runs first hands its key set to the
/// other side as a key filter, ahead of the filters from above. By default
/// the build side runs first; its partition tables are the set, and they
/// filter the probe side of an inner or semi join (a left or anti join
/// keeps every probe row). With `probe_first` the probe side runs first and
/// its keys filter the build side, for any join type: the lowering picks it
/// when the build child is a grouped aggregation keyed on the join keys, so
/// the filter reaches the aggregation's input. A filter from above passes
/// to the probe side when all its columns are probe columns, and to the
/// build side of an inner join when all are build columns.
class HashJoinOp : public PhysOp {
 public:
  HashJoinOp(PhysOpRef build, PhysOpRef probe, std::vector<int> build_keys,
             std::vector<int> probe_keys, JoinType type,
             bool probe_first = false);

  Status Execute(ExecContext* ctx, RowSet* out) override {
    return ExecuteFiltered(ctx, {}, out);
  }
  Status ExecuteFiltered(ExecContext* ctx, const KeyFilters& filters,
                         RowSet* out) override;

 private:
  PhysOpRef build_, probe_;
  std::vector<int> build_keys_, probe_keys_;
  JoinType type_;
  bool probe_first_;
};

/// kSumInt is internal to distributed execution: the coordinator's final
/// aggregation folds partial COUNTs with an int64-typed sum, so merged
/// counts stay integers (a double SUM would change the result type).
enum class AggKind {
  kSum, kCount, kCountStar, kAvg, kMin, kMax, kCountDistinct, kSumInt,
};

struct AggSpec {
  AggKind kind;
  ExprRef arg;  // null for kCountStar
};

/// The type of `a`'s output column: INT64 for the counts and kSumInt, the
/// argument's type for MIN/MAX, DOUBLE otherwise.
DataType AggOutType(const AggSpec& a);

/// Hash aggregation with thread-local partial tables, partitioned by key
/// hash as they fill and merged partition-parallel (§6.3). Output: group
/// columns (in given order) then one column per agg.
///
/// Groups of any key types map to dense ids in open-addressing tables over
/// the same int64-word key images the join uses, aggregate state lives in
/// flat arrays (strings only when a MIN/MAX reads one), and COUNT DISTINCT
/// keeps (group, agg, value image) keys. A row keyed like the row before it
/// in its batch reuses that row's group id without a lookup. With every
/// row's state located, each aggregate updates the batch in one loop typed
/// for its kind and lane (SUM/AVG on the DOUBLE or INT lane, COUNT,
/// COUNT(*), kSumInt); a group's rows add up in row order. Each worker
/// keeps one table per exchange partition; partition p takes over worker
/// 0's table p and folds the other workers' tables p into it in worker
/// order, remapping the group ids of their COUNT DISTINCT keys. Groups are
/// emitted in ascending key-image order, the engine's one order over values
/// (SortOp sorts by it too): NULL first, then CompareValues' order, doubles
/// totally ordered by their bits. The row order depends only on the key
/// set, at every dop. The emission sort compares a 64-bit prefix of the
/// first key column and falls back to the full key only on a tie. A key
/// filter on group columns only passes to the input: it drops whole groups.
///
/// Dense keys: one integer group column whose non-NULL values span few
/// slots ((span + 2) * workers <= 2 * input rows, and under 2^26), with no
/// COUNT DISTINCT, skips the key tables. Slot 0 is the NULL group and slot
/// k + 1 key min + k; each worker keeps one array set over the slots, the
/// workers fold into worker 0's over disjoint slot ranges in parallel, and
/// the emit walks the slots in order, with no sort. The update, fold and
/// emit code is the hashed path's, and so are the results.
class HashAggOp : public PhysOp {
 public:
  HashAggOp(PhysOpRef child, std::vector<int> group_cols,
            std::vector<AggSpec> aggs);

  Status Execute(ExecContext* ctx, RowSet* out) override {
    return ExecuteFiltered(ctx, {}, out);
  }
  Status ExecuteFiltered(ExecContext* ctx, const KeyFilters& filters,
                         RowSet* out) override;

 private:
  PhysOpRef child_;
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
  // State layout, fixed at plan time.
  std::vector<DataType> key_lanes_;  // per group column: its image lane
  bool has_sums_ = false;     // a SUM or AVG: allocate sums
  bool has_minmax_ = false;   // a numeric MIN or MAX: allocate their state
  bool has_strings_ = false;  // a string MIN or MAX: allocate strings
  bool has_distinct_ = false;  // a COUNT DISTINCT: the keys stay hashed
  std::vector<DataType> minmax_lane_;  // per agg: the lane a MIN/MAX reads
};

struct SortKey {
  int col;
  bool desc = false;
};

/// ORDER BY with an optional LIMIT (limit < 0: none). Each row is imaged
/// with HashAggOp's key images over the sort keys and then every column,
/// and row refs are sorted under HashAggOp's key-image order with each sort
/// key's direction: one total order, NaN included, so ties resolve
/// independently of the input order. The output is gathered a column at a
/// time in Batch::kDefaultCapacity batches. Key filters stop here.
class SortOp : public PhysOp {
 public:
  SortOp(PhysOpRef child, std::vector<SortKey> keys, int64_t limit = -1);
  Status Execute(ExecContext* ctx, RowSet* out) override;

 private:
  PhysOpRef child_;
  std::vector<SortKey> keys_;
  int64_t limit_;
};

/// Emits a copy of its rows: the coordinator's leaf over fragment outputs.
class ValuesOp : public PhysOp {
 public:
  explicit ValuesOp(RowSet rows);
  Status Execute(ExecContext* ctx, RowSet* out) override;

 private:
  RowSet rows_;
};

// --- Result helpers ------------------------------------------------------

/// Flattens a RowSet to value rows (tests, examples, result comparison).
std::vector<Row> ToRows(const RowSet& set);
/// Runs the plan and flattens.
Status RunPlan(const PhysOpRef& root, ExecContext* ctx, std::vector<Row>* out);

}  // namespace imci

#endif  // POLARDB_IMCI_EXEC_OPERATORS_H_
