#include "exec/operators.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/coding.h"
#include "exec/merge.h"

namespace imci {

void CompactBatch(Batch* batch, const std::vector<uint8_t>& mask) {
  size_t kept = 0;
  for (size_t i = 0; i < batch->rows; ++i) {
    if (!mask[i]) continue;
    if (kept != i) {
      for (auto& col : batch->cols) {
        col.nulls[kept] = col.nulls[i];
        switch (col.type) {
          case DataType::kDouble: col.dbls[kept] = col.dbls[i]; break;
          case DataType::kString: col.strs[kept] = std::move(col.strs[i]); break;
          default: col.ints[kept] = col.ints[i]; break;
        }
      }
    }
    ++kept;
  }
  for (auto& col : batch->cols) {
    col.nulls.resize(kept);
    switch (col.type) {
      case DataType::kDouble: col.dbls.resize(kept); break;
      case DataType::kString: col.strs.resize(kept); break;
      default: col.ints.resize(kept); break;
    }
  }
  batch->rows = kept;
}

ColumnScanOp::ColumnScanOp(ColumnIndex* index, std::vector<int> cols,
                           ExprRef filter, ScanPartition part)
    : index_(index), cols_(std::move(cols)), filter_(std::move(filter)),
      part_(part) {
  packs_.reserve(cols_.size());
  for (int c : cols_) {
    packs_.push_back(index_->PackForColumn(c));
    out_types_.push_back(index_->schema().column(c).type);
  }
  if (part_.col >= 0) part_pack_ = index_->PackForColumn(part_.col);
}

bool ColumnScanOp::GroupPrunable(const RowGroup& g) const {
  if (!filter_) return false;
  std::vector<IntBound> bounds;
  ExtractIntBounds(filter_, &bounds);
  for (const IntBound& b : bounds) {
    if (b.col < 0 || b.col >= static_cast<int>(packs_.size())) {
      continue;
    }
    const PackMeta& meta = g.meta(packs_[b.col]);
    if (!meta.has_value) continue;
    // Disjoint ranges -> no row in this group can satisfy the conjunct.
    if (b.has_lo && meta.max_i < b.lo) return true;
    if (b.has_hi && meta.min_i > b.hi) return true;
  }
  return false;
}

bool ColumnScanOp::PartitionSkipsGroup(const RowGroup& g) const {
  if (part_pack_ < 0) return false;
  const PackMeta& meta = g.meta(part_pack_);
  if (!meta.has_value) return false;
  if (part_.has_lo && meta.max_i < part_.lo) return true;
  if (part_.has_hi && meta.min_i > part_.hi) return true;
  return false;
}

Status ColumnScanOp::ScanGroup(const RowGroup& g, uint32_t used, Vid read_vid,
                               RowSet* out) const {
  Batch batch = Batch::Make(out_types_);
  auto flush = [&]() -> Status {
    if (batch.rows == 0) return Status::OK();
    if (filter_) {
      std::vector<uint8_t> mask;
      IMCI_RETURN_NOT_OK(filter_->EvalMask(batch, &mask));
      CompactBatch(&batch, mask);
    }
    if (batch.rows > 0) out->batches.push_back(std::move(batch));
    batch = Batch::Make(out_types_);
    return Status::OK();
  };
  for (uint32_t off = 0; off < used; ++off) {
    if (!g.Visible(off, read_vid)) continue;
    if (part_pack_ >= 0) {
      // Fragment partition check: a NULL partition key belongs to no range
      // (the partition column is a PK in practice, so this cannot drop rows).
      if (g.is_null(part_pack_, off)) continue;
      const int64_t pv = g.int_data(part_pack_)[off];
      if (part_.has_lo && pv < part_.lo) continue;
      if (part_.has_hi && pv > part_.hi) continue;
    }
    for (size_t c = 0; c < packs_.size(); ++c) {
      const int p = packs_[c];
      ColumnVector& dst = batch.cols[c];
      if (g.is_null(p, off)) {
        dst.AppendNull();
      } else {
        switch (dst.type) {
          case DataType::kDouble: dst.AppendDouble(g.double_data(p)[off]); break;
          case DataType::kString: dst.AppendString(g.str_at(p, off)); break;
          default: dst.AppendInt(g.int_data(p)[off]); break;
        }
      }
    }
    if (++batch.rows >= Batch::kDefaultCapacity) IMCI_RETURN_NOT_OK(flush());
  }
  return flush();
}

Status ColumnScanOp::Execute(ExecContext* ctx, RowSet* out) {
  out->types = out_types_;
  if (part_.col >= 0 && part_pack_ < 0) {
    return Status::NotSupported("partition column has no pack");
  }
  const size_t ngroups = index_->num_groups();
  const Vid read_vid = ctx->read_vid;
  const int workers = std::max(1, ctx->parallelism);
  std::vector<RowSet> partials(workers);
  std::atomic<size_t> next_group{0};
  Status statuses[64];
  const int w = std::min(workers, 64);
  const size_t morsel =
      static_cast<size_t>(std::max(1, ctx->morsel_row_groups));
  // Morsel-driven parallel scan: workers claim morsels — runs of consecutive
  // row groups ("Data Packs in a non-interleaved manner") — from a shared
  // dispatch counter. A fast worker claims more morsels than a slow one, so
  // skew balances without a static assignment, and the pool's deque stealing
  // covers workers blocked in other queries.
  ParallelFor(ctx->pool, w, [&](int wi) {
    for (;;) {
      const size_t start = next_group.fetch_add(morsel,
                                                std::memory_order_relaxed);
      if (start >= ngroups) return;
      const size_t end = std::min(ngroups, start + morsel);
      for (size_t gid = start; gid < end; ++gid) {
        auto g = index_->group(gid);
        if (!g || g->retired()) continue;
        const uint32_t used = index_->GroupUsed(gid);
        if (used == 0) continue;
        // Partition skip is correctness-driven, not gated on the pruning
        // ablation toggle, and not counted in the pruning metrics.
        if (PartitionSkipsGroup(*g)) continue;
        if (ctx->pruning_enabled && GroupPrunable(*g)) {
          groups_pruned_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        groups_scanned_.fetch_add(1, std::memory_order_relaxed);
        Status s = ScanGroup(*g, used, read_vid, &partials[wi]);
        if (!s.ok()) {
          statuses[wi] = s;
          return;
        }
      }
    }
  });
  for (int i = 0; i < w; ++i) IMCI_RETURN_NOT_OK(statuses[i]);
  for (RowSet& p : partials) {
    for (Batch& b : p.batches) out->batches.push_back(std::move(b));
  }
  return Status::OK();
}

RowScanOp::RowScanOp(const RowTable* table, std::vector<int> cols,
                     ExprRef filter, IndexHint hint)
    : table_(table), cols_(std::move(cols)), filter_(std::move(filter)),
      hint_(hint) {
  for (int c : cols_) out_types_.push_back(table_->schema().column(c).type);
}

void RowScanOp::AppendRow(const Row& row, Batch* batch) const {
  for (size_t c = 0; c < cols_.size(); ++c) {
    batch->cols[c].AppendValue(row[cols_[c]]);
  }
  batch->rows++;
}

Status RowScanOp::Execute(ExecContext* ctx, RowSet* out) {
  // The scan reads the commit prefix at read_vid: the RW's read view, or the
  // applied VID an RO pinned for the plan.
  const Vid read_vid = ctx->read_vid;
  out->types = out_types_;
  Batch batch = Batch::Make(out_types_);
  Status inner;
  auto flush = [&]() -> Status {
    if (batch.rows == 0) return Status::OK();
    if (filter_) {
      std::vector<uint8_t> mask;
      IMCI_RETURN_NOT_OK(filter_->EvalMask(batch, &mask));
      CompactBatch(&batch, mask);
    }
    if (batch.rows > 0) out->batches.push_back(std::move(batch));
    batch = Batch::Make(out_types_);
    return Status::OK();
  };
  auto visit = [&](int64_t /*pk*/, const Row& row) {
    AppendRow(row, &batch);
    // Small batches: the row engine is a row-at-a-time interpreter with
    // early materialization; large vectors would misrepresent it (§2.1).
    if (batch.rows >= 128) {
      inner = flush();
      if (!inner.ok()) return false;
    }
    return true;
  };
  if (hint_.col < 0) {
    IMCI_RETURN_NOT_OK(table_->SnapshotScan(read_vid, visit));
  } else if (hint_.col == table_->schema().pk_col()) {
    IMCI_RETURN_NOT_OK(
        table_->SnapshotScanRange(read_vid, hint_.lo, hint_.hi, visit));
  } else {
    std::vector<int64_t> pks;
    IMCI_RETURN_NOT_OK(table_->SnapshotIndexLookupRange(
        read_vid, hint_.col, hint_.lo, hint_.hi, &pks));
    Row row;
    for (int64_t pk : pks) {
      Status got = table_->SnapshotGet(read_vid, pk, &row);
      if (got.IsNotFound()) continue;  // row vanished between lookup and get
      IMCI_RETURN_NOT_OK(got);
      if (!visit(pk, row)) break;
    }
  }
  IMCI_RETURN_NOT_OK(inner);
  return flush();
}

FilterOp::FilterOp(PhysOpRef child, ExprRef pred)
    : child_(std::move(child)), pred_(std::move(pred)) {
  out_types_ = child_->out_types();
}

Status FilterOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->Execute(ctx, &in));
  out->types = out_types_;
  for (Batch& b : in.batches) {
    std::vector<uint8_t> mask;
    IMCI_RETURN_NOT_OK(pred_->EvalMask(b, &mask));
    CompactBatch(&b, mask);
    if (b.rows > 0) out->batches.push_back(std::move(b));
  }
  return Status::OK();
}

ProjectOp::ProjectOp(PhysOpRef child, std::vector<ExprRef> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  for (const ExprRef& e : exprs_) out_types_.push_back(e->out_type);
}

Status ProjectOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->Execute(ctx, &in));
  out->types = out_types_;
  out->batches.resize(in.batches.size());
  std::atomic<bool> failed{false};
  const int n = static_cast<int>(in.batches.size());
  ParallelFor(ctx->pool, n, [&](int i) {
    Batch& src = in.batches[i];
    Batch dst;
    dst.rows = src.rows;
    dst.cols.reserve(exprs_.size());
    for (const ExprRef& e : exprs_) {
      ColumnVector v(e->out_type);
      if (!e->Eval(src, &v).ok()) {
        failed.store(true);
        return;
      }
      dst.cols.push_back(std::move(v));
    }
    out->batches[i] = std::move(dst);
  });
  if (failed.load()) return Status::Internal("projection failed");
  return Status::OK();
}

namespace {

/// Encodes join/group key values; returns false when any key is NULL (SQL:
/// NULL keys never join).
bool EncodeKey(const Batch& b, const std::vector<int>& key_cols, size_t row,
               std::string* out) {
  out->clear();
  for (int c : key_cols) {
    const ColumnVector& v = b.cols[c];
    if (v.nulls[row]) return false;
    switch (v.type) {
      case DataType::kDouble: {
        PutFixed64(out, static_cast<uint64_t>(v.dbls[row] * 1e6));
        break;
      }
      case DataType::kString:
        PutFixed32(out, static_cast<uint32_t>(v.strs[row].size()));
        out->append(v.strs[row]);
        break;
      default:
        PutFixed64(out, static_cast<uint64_t>(v.ints[row]));
        break;
    }
  }
  return true;
}

}  // namespace

HashJoinOp::HashJoinOp(PhysOpRef build, PhysOpRef probe,
                       std::vector<int> build_keys,
                       std::vector<int> probe_keys, JoinType type)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      type_(type) {
  out_types_ = probe_->out_types();
  if (type_ == JoinType::kInner || type_ == JoinType::kLeft) {
    for (DataType t : build_->out_types()) out_types_.push_back(t);
  }
}

namespace {

/// Number of exchange partitions for a given worker count: the smallest
/// power of two >= workers (power of two so the partition of a hash is a
/// mask, and >= workers so every worker owns at least one partition).
int ExchangePartitions(int workers) {
  int p = 1;
  while (p < workers) p <<= 1;
  return p;
}

}  // namespace

Status HashJoinOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet build_set;
  IMCI_RETURN_NOT_OK(build_->Execute(ctx, &build_set));
  RowSet probe_set;
  IMCI_RETURN_NOT_OK(probe_->Execute(ctx, &probe_set));
  out->types = out_types_;

  // Build phase, partition-parallel with an exchange step. Stage 1
  // (scatter) runs per build batch: encode each row's key and route it to
  // partition hash(key) & (P-1). Stage 2 (merge) runs per partition:
  // partition p assembles its own hash table from every batch's p-bucket,
  // walking batches in index order so refs land in the exact (batch, row)
  // order the serial build would have produced — match emission order, and
  // therefore results, are identical to parallelism=1.
  using Ref = std::pair<uint32_t, uint32_t>;  // (batch, row)
  const int workers = std::max(1, ctx->parallelism);
  const int P = ExchangePartitions(std::min(workers, 64));
  const uint32_t pmask = static_cast<uint32_t>(P - 1);
  const std::hash<std::string> hasher;

  const int nbuild = static_cast<int>(build_set.batches.size());
  struct ScatterBucket {
    std::vector<std::pair<std::string, uint32_t>> rows;  // (key, row)
  };
  // scatter[bi][p]: keys of batch bi routed to partition p.
  std::vector<std::vector<ScatterBucket>> scatter(nbuild);
  ParallelFor(ctx->pool, nbuild, [&](int bi) {
    const Batch& b = build_set.batches[bi];
    auto& parts = scatter[bi];
    parts.resize(P);
    std::string key;
    for (uint32_t ri = 0; ri < b.rows; ++ri) {
      if (!EncodeKey(b, build_keys_, ri, &key)) continue;
      const uint32_t p = static_cast<uint32_t>(hasher(key)) & pmask;
      parts[p].rows.emplace_back(key, ri);
    }
  });

  std::vector<std::unordered_map<std::string, std::vector<Ref>>> tables(P);
  ParallelFor(ctx->pool, P, [&](int p) {
    auto& table = tables[p];
    for (int bi = 0; bi < nbuild; ++bi) {
      for (auto& [key, ri] : scatter[bi][p].rows) {
        table[std::move(key)].push_back({static_cast<uint32_t>(bi), ri});
      }
    }
  });
  scatter.clear();

  const int build_width =
      (type_ == JoinType::kInner || type_ == JoinType::kLeft)
          ? static_cast<int>(build_->out_types().size())
          : 0;
  const int probe_width = static_cast<int>(probe_->out_types().size());

  // Probe phase: parallel over probe batches, outputs kept in input order.
  std::vector<Batch> results(probe_set.batches.size());
  const int n = static_cast<int>(probe_set.batches.size());
  ParallelFor(ctx->pool, n, [&](int pi) {
    const Batch& pb = probe_set.batches[pi];
    Batch outb = Batch::Make(out_types_);
    std::string k;
    for (uint32_t ri = 0; ri < pb.rows; ++ri) {
      const bool valid = EncodeKey(pb, probe_keys_, ri, &k);
      const std::vector<Ref>* matches = nullptr;
      if (valid) {
        const auto& table = tables[static_cast<uint32_t>(hasher(k)) & pmask];
        auto it = table.find(k);
        if (it != table.end()) matches = &it->second;
      }
      switch (type_) {
        case JoinType::kInner: {
          if (!matches) break;
          for (const Ref& m : *matches) {
            for (int c = 0; c < probe_width; ++c) {
              outb.cols[c].AppendFrom(pb.cols[c], ri);
            }
            const Batch& bb = build_set.batches[m.first];
            for (int c = 0; c < build_width; ++c) {
              outb.cols[probe_width + c].AppendFrom(bb.cols[c], m.second);
            }
            outb.rows++;
          }
          break;
        }
        case JoinType::kLeft: {
          if (matches) {
            for (const Ref& m : *matches) {
              for (int c = 0; c < probe_width; ++c) {
                outb.cols[c].AppendFrom(pb.cols[c], ri);
              }
              const Batch& bb = build_set.batches[m.first];
              for (int c = 0; c < build_width; ++c) {
                outb.cols[probe_width + c].AppendFrom(bb.cols[c], m.second);
              }
              outb.rows++;
            }
          } else {
            for (int c = 0; c < probe_width; ++c) {
              outb.cols[c].AppendFrom(pb.cols[c], ri);
            }
            for (int c = 0; c < build_width; ++c) {
              outb.cols[probe_width + c].AppendNull();
            }
            outb.rows++;
          }
          break;
        }
        case JoinType::kSemi: {
          if (matches) {
            for (int c = 0; c < probe_width; ++c) {
              outb.cols[c].AppendFrom(pb.cols[c], ri);
            }
            outb.rows++;
          }
          break;
        }
        case JoinType::kAnti: {
          if (!matches) {
            for (int c = 0; c < probe_width; ++c) {
              outb.cols[c].AppendFrom(pb.cols[c], ri);
            }
            outb.rows++;
          }
          break;
        }
      }
    }
    results[pi] = std::move(outb);
  });
  for (Batch& b : results) {
    if (b.rows > 0) out->batches.push_back(std::move(b));
  }
  return Status::OK();
}

namespace {

struct AggState {
  Row group_values;
  std::vector<double> sums;
  std::vector<int64_t> counts;
  std::vector<Value> mins, maxs;
  std::vector<std::unordered_set<std::string>> distincts;
};

}  // namespace

HashAggOp::HashAggOp(PhysOpRef child, std::vector<int> group_cols,
                     std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)) {
  const auto& ct = child_->out_types();
  for (int c : group_cols_) out_types_.push_back(ct[c]);
  for (const AggSpec& a : aggs_) {
    switch (a.kind) {
      case AggKind::kCount:
      case AggKind::kCountStar:
      case AggKind::kCountDistinct:
      case AggKind::kSumInt:
        out_types_.push_back(DataType::kInt64);
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        out_types_.push_back(a.arg->out_type);
        break;
      default:
        out_types_.push_back(DataType::kDouble);
        break;
    }
  }
}

Status HashAggOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->Execute(ctx, &in));
  out->types = out_types_;

  const int workers = std::max(1, std::min(ctx->parallelism, 32));
  std::vector<std::unordered_map<std::string, AggState>> partials(workers);
  const int nb = static_cast<int>(in.batches.size());
  std::atomic<int> next_batch{0};
  std::atomic<bool> failed{false};

  // Partial aggregation: thread-local tables, no synchronization.
  ParallelFor(ctx->pool, workers, [&](int wi) {
    auto& local = partials[wi];
    std::string key;
    for (;;) {
      const int bi = next_batch.fetch_add(1, std::memory_order_relaxed);
      if (bi >= nb) return;
      const Batch& b = in.batches[bi];
      // Evaluate agg argument expressions once per batch.
      std::vector<ColumnVector> arg_vals(aggs_.size());
      for (size_t a = 0; a < aggs_.size(); ++a) {
        if (aggs_[a].arg) {
          if (!aggs_[a].arg->Eval(b, &arg_vals[a]).ok()) {
            failed.store(true);
            return;
          }
        }
      }
      for (uint32_t ri = 0; ri < b.rows; ++ri) {
        key.clear();
        for (int c : group_cols_) {
          const ColumnVector& v = b.cols[c];
          key.push_back(v.nulls[ri] ? 'N' : 'V');
          if (!v.nulls[ri]) {
            switch (v.type) {
              case DataType::kDouble:
                PutFixed64(&key, static_cast<uint64_t>(v.dbls[ri] * 1e6));
                break;
              case DataType::kString:
                PutFixed32(&key, static_cast<uint32_t>(v.strs[ri].size()));
                key.append(v.strs[ri]);
                break;
              default:
                PutFixed64(&key, static_cast<uint64_t>(v.ints[ri]));
                break;
            }
          }
        }
        AggState& st = local[key];
        if (st.sums.empty()) {
          st.sums.assign(aggs_.size(), 0.0);
          st.counts.assign(aggs_.size(), 0);
          st.mins.assign(aggs_.size(), Value{});
          st.maxs.assign(aggs_.size(), Value{});
          st.distincts.resize(aggs_.size());
          st.group_values.reserve(group_cols_.size());
          for (int c : group_cols_) {
            st.group_values.push_back(b.cols[c].GetValue(ri));
          }
        }
        for (size_t a = 0; a < aggs_.size(); ++a) {
          const AggSpec& spec = aggs_[a];
          if (spec.kind == AggKind::kCountStar) {
            st.counts[a]++;
            continue;
          }
          const ColumnVector& v = arg_vals[a];
          if (v.nulls[ri]) continue;
          switch (spec.kind) {
            case AggKind::kSum:
            case AggKind::kAvg:
              st.sums[a] += v.NumericAt(ri);
              st.counts[a]++;
              break;
            case AggKind::kCount:
              st.counts[a]++;
              break;
            case AggKind::kSumInt:
              st.counts[a] += v.ints[ri];
              break;
            case AggKind::kMin: {
              Value x = v.GetValue(ri);
              if (IsNull(st.mins[a]) || CompareValues(x, st.mins[a]) < 0) {
                st.mins[a] = std::move(x);
              }
              break;
            }
            case AggKind::kMax: {
              Value x = v.GetValue(ri);
              if (IsNull(st.maxs[a]) || CompareValues(x, st.maxs[a]) > 0) {
                st.maxs[a] = std::move(x);
              }
              break;
            }
            case AggKind::kCountDistinct: {
              std::string enc;
              switch (v.type) {
                case DataType::kDouble:
                  PutFixed64(&enc, static_cast<uint64_t>(v.dbls[ri] * 1e6));
                  break;
                case DataType::kString: enc = v.strs[ri]; break;
                default:
                  PutFixed64(&enc, static_cast<uint64_t>(v.ints[ri]));
                  break;
              }
              st.distincts[a].insert(std::move(enc));
              break;
            }
            default:
              break;
          }
        }
      }
    }
  });
  if (failed.load()) return Status::Internal("agg arg eval failed");

  // Exchange/merge: the thread-local partials are repartitioned by key hash
  // and each partition is merged by a single worker. A key lives in exactly
  // one partition, so partition workers can move agg states out of the
  // shared partial maps without synchronization; each partition walks the
  // partials in worker order so the accumulation order matches the serial
  // merge exactly.
  const int P = ExchangePartitions(workers);
  const uint32_t pmask = static_cast<uint32_t>(P - 1);
  const std::hash<std::string> hasher;
  std::vector<std::unordered_map<std::string, AggState>> merged(P);
  ParallelFor(ctx->pool, P, [&](int p) {
    auto& part = merged[p];
    for (int w = 0; w < workers; ++w) {
      for (auto& [key, st] : partials[w]) {
        if ((static_cast<uint32_t>(hasher(key)) & pmask) !=
            static_cast<uint32_t>(p)) {
          continue;
        }
        auto it = part.find(key);
        if (it == part.end()) {
          part.emplace(key, std::move(st));
          continue;
        }
        AggState& dst = it->second;
        for (size_t a = 0; a < aggs_.size(); ++a) {
          dst.sums[a] += st.sums[a];
          dst.counts[a] += st.counts[a];
          if (!IsNull(st.mins[a]) &&
              (IsNull(dst.mins[a]) ||
               CompareValues(st.mins[a], dst.mins[a]) < 0)) {
            dst.mins[a] = std::move(st.mins[a]);
          }
          if (!IsNull(st.maxs[a]) &&
              (IsNull(dst.maxs[a]) ||
               CompareValues(st.maxs[a], dst.maxs[a]) > 0)) {
            dst.maxs[a] = std::move(st.maxs[a]);
          }
          for (auto& d : st.distincts[a]) dst.distincts[a].insert(d);
        }
      }
    }
  });

  // Handle the global-aggregate-with-no-rows case: SQL returns one row.
  size_t total_groups = 0;
  for (const auto& part : merged) total_groups += part.size();
  if (total_groups == 0 && group_cols_.empty()) {
    AggState st;
    st.sums.assign(aggs_.size(), 0.0);
    st.counts.assign(aggs_.size(), 0);
    st.mins.assign(aggs_.size(), Value{});
    st.maxs.assign(aggs_.size(), Value{});
    st.distincts.resize(aggs_.size());
    merged[0].emplace("", std::move(st));
  }

  Batch outb = Batch::Make(out_types_);
  for (auto& part : merged)
  for (auto& [key, st] : part) {
    int c = 0;
    for (size_t g = 0; g < group_cols_.size(); ++g, ++c) {
      outb.cols[c].AppendValue(st.group_values[g]);
    }
    for (size_t a = 0; a < aggs_.size(); ++a, ++c) {
      switch (aggs_[a].kind) {
        case AggKind::kSum:
          if (st.counts[a] == 0) {
            outb.cols[c].AppendNull();
          } else {
            outb.cols[c].AppendDouble(st.sums[a]);
          }
          break;
        case AggKind::kAvg:
          if (st.counts[a] == 0) {
            outb.cols[c].AppendNull();
          } else {
            outb.cols[c].AppendDouble(st.sums[a] / st.counts[a]);
          }
          break;
        case AggKind::kCount:
        case AggKind::kCountStar:
        case AggKind::kSumInt:
          outb.cols[c].AppendInt(st.counts[a]);
          break;
        case AggKind::kCountDistinct:
          outb.cols[c].AppendInt(static_cast<int64_t>(st.distincts[a].size()));
          break;
        case AggKind::kMin:
          outb.cols[c].AppendValue(st.mins[a]);
          break;
        case AggKind::kMax:
          outb.cols[c].AppendValue(st.maxs[a]);
          break;
      }
    }
    outb.rows++;
    if (outb.rows >= Batch::kDefaultCapacity) {
      out->batches.push_back(std::move(outb));
      outb = Batch::Make(out_types_);
    }
  }
  if (outb.rows > 0) out->batches.push_back(std::move(outb));
  return Status::OK();
}

SortOp::SortOp(PhysOpRef child, std::vector<SortKey> keys, int64_t limit)
    : child_(std::move(child)), keys_(std::move(keys)), limit_(limit) {
  out_types_ = child_->out_types();
}

Status SortOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->Execute(ctx, &in));
  std::vector<Row> rows = ToRows(in);
  // Total order (keys then full-row tie-break): ties are broken the same way
  // on every node and in the coordinator's k-way merge, so tied rows
  // straddling a LIMIT boundary resolve identically everywhere.
  auto cmp = [&](const Row& a, const Row& b) {
    return CompareRowsTotal(a, b, keys_) < 0;
  };
  if (limit_ >= 0 && static_cast<size_t>(limit_) < rows.size()) {
    std::partial_sort(rows.begin(), rows.begin() + limit_, rows.end(), cmp);
    rows.resize(limit_);
  } else {
    std::sort(rows.begin(), rows.end(), cmp);
  }
  out->types = out_types_;
  Batch b = Batch::Make(out_types_);
  for (const Row& r : rows) {
    for (size_t c = 0; c < r.size(); ++c) b.cols[c].AppendValue(r[c]);
    if (++b.rows >= Batch::kDefaultCapacity) {
      out->batches.push_back(std::move(b));
      b = Batch::Make(out_types_);
    }
  }
  if (b.rows > 0) out->batches.push_back(std::move(b));
  return Status::OK();
}

LimitOp::LimitOp(PhysOpRef child, int64_t limit)
    : child_(std::move(child)), limit_(limit) {
  out_types_ = child_->out_types();
}

Status LimitOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->Execute(ctx, &in));
  out->types = out_types_;
  int64_t remaining = limit_;
  for (Batch& b : in.batches) {
    if (remaining <= 0) break;
    if (static_cast<int64_t>(b.rows) <= remaining) {
      remaining -= b.rows;
      out->batches.push_back(std::move(b));
    } else {
      Batch cut = Batch::Make(out_types_);
      for (int64_t i = 0; i < remaining; ++i) {
        cut.AppendRowFrom(b, static_cast<size_t>(i));
      }
      out->batches.push_back(std::move(cut));
      remaining = 0;
    }
  }
  return Status::OK();
}

ValuesOp::ValuesOp(std::vector<DataType> types, std::vector<Row> rows)
    : rows_(std::move(rows)) {
  out_types_ = std::move(types);
}

Status ValuesOp::Execute(ExecContext* /*ctx*/, RowSet* out) {
  out->types = out_types_;
  Batch b = Batch::Make(out_types_);
  for (const Row& r : rows_) {
    for (size_t c = 0; c < r.size(); ++c) b.cols[c].AppendValue(r[c]);
    b.rows++;
  }
  if (b.rows > 0) out->batches.push_back(std::move(b));
  return Status::OK();
}

std::vector<Row> ToRows(const RowSet& set) {
  std::vector<Row> rows;
  rows.reserve(set.TotalRows());
  for (const Batch& b : set.batches) {
    for (size_t i = 0; i < b.rows; ++i) {
      Row r;
      r.reserve(b.cols.size());
      for (const auto& col : b.cols) r.push_back(col.GetValue(i));
      rows.push_back(std::move(r));
    }
  }
  return rows;
}

Status RunPlan(const PhysOpRef& root, ExecContext* ctx,
               std::vector<Row>* out) {
  RowSet set;
  IMCI_RETURN_NOT_OK(root->Execute(ctx, &set));
  *out = ToRows(set);
  return Status::OK();
}

}  // namespace imci
