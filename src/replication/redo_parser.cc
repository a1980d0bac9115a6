#include "replication/redo_parser.h"

#include <algorithm>

#include "common/coding.h"

namespace imci {

RedoParser::RedoParser(const Catalog* catalog, BufferPool* pool,
                       ThreadPool* workers, int parallelism,
                       RowStoreEngine* replica_engine)
    : catalog_(catalog),
      pool_(pool),
      workers_(workers),
      parallelism_(parallelism < 1 ? 1 : parallelism),
      replica_engine_(replica_engine) {}

Status RedoParser::GetOrCreatePage(PageId id, TableId table_id,
                                   PageRef* page) {
  Status s = pool_->GetPage(id, page);
  if (s.ok()) return s;
  if (!s.IsNotFound()) return s;
  *page = pool_->NewPage(id, table_id, PageType::kLeaf);
  return Status::OK();
}

namespace {
/// A record Phase#1 cannot apply: the replica would diverge from the RW if
/// replay went on past it, so the failure wedges the pipeline (Corruption
/// is never retried).
Status ApplyFailure(const RedoRecord& rec, const Status& cause) {
  return Status::Corruption("redo apply at LSN " + std::to_string(rec.lsn) +
                            ": " + cause.ToString());
}
}  // namespace

Status RedoParser::ApplySmo(const RedoRecord& rec) {
  // Full page images: overwrite the replica pages. SMO records are applied
  // serially (they are barriers), so no latching races with DML appliers.
  // Every image is decoded before any is installed, so a bad one leaves
  // the record wholly unapplied.
  std::vector<PageRef> pages;
  pages.reserve(rec.page_images.size());
  for (const auto& [pid, image] : rec.page_images) {
    auto page = std::make_shared<Page>();
    Status s = Page::Deserialize(image.data(), image.size(), page.get());
    if (!s.ok()) return ApplyFailure(rec, s);
    pages.push_back(std::move(page));
  }
  for (size_t i = 0; i < pages.size(); ++i) {
    const PageId pid = rec.page_images[i].first;
    PageRef& page = pages[i];
    PageRef existing = pool_->GetCached(pid);
    if (existing && existing->page_lsn >= rec.lsn) continue;
    page->page_lsn = rec.lsn;
    pool_->PutPage(std::move(page), /*dirty=*/false);
  }
  records_applied_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status RedoParser::ApplyPageRecord(const RedoRecord& rec,
                                   std::vector<LogicalDml>* out) {
  auto schema = catalog_->Get(rec.table_id);
  if (!schema) return Status::Corruption("unknown table in redo");
  PageRef page;
  IMCI_RETURN_NOT_OK(GetOrCreatePage(rec.page_id, rec.table_id, &page));
  RowTable* replica = replica_engine_->GetTable(rec.table_id);
  RowTable::ReplicaApply effect;
  PreparedApply prep;
  IMCI_RETURN_NOT_OK(PreparePageRecord(rec, *schema, page,
                                       replica != nullptr, &effect, &prep,
                                       out));
  if (prep.skip) return Status::OK();
  // Install-before-modify: the version chain must gate the page change
  // before any reader can see it (see the ordering note in redo_parser.h).
  if (replica != nullptr &&
      effect.kind != RowTable::ReplicaApply::Kind::kNone) {
    replica->ApplyReplica(std::move(effect));
  }
  return ApplyPreparedLocked(rec, page, std::move(prep));
}

Status RedoParser::PreparePageRecord(const RedoRecord& rec,
                                     const Schema& schema,
                                     const PageRef& page, bool want_effect,
                                     RowTable::ReplicaApply* effect,
                                     PreparedApply* prep,
                                     std::vector<LogicalDml>* out) {
  std::shared_lock<std::shared_mutex> latch(page->latch);
  if (page->page_lsn >= rec.lsn) {
    // Already reflected (page was flushed past this point before we booted).
    prep->skip = true;
    return Status::OK();
  }
  const bool user_dml = rec.tid != 0;
  switch (rec.type) {
    case RedoType::kInsert: {
      int64_t pk;
      IMCI_RETURN_NOT_OK(RowCodec::DecodePk(
          schema, rec.after_image.data(), rec.after_image.size(), &pk));
      prep->pk = pk;
      Row row;
      IMCI_RETURN_NOT_OK(RowCodec::Decode(
          schema, rec.after_image.data(), rec.after_image.size(), &row));
      if (want_effect) {
        effect->kind = RowTable::ReplicaApply::Kind::kInsert;
        effect->tid = rec.tid;
        effect->new_row = row;
        effect->image = rec.after_image;
      }
      if (user_dml) {
        LogicalDml dml;
        dml.op = LogicalDml::Op::kInsert;
        dml.table_id = rec.table_id;
        dml.lsn = rec.lsn;
        dml.tid = rec.tid;
        dml.pk = pk;
        dml.row = std::move(row);
        out->push_back(std::move(dml));
      }
      break;
    }
    case RedoType::kUpdate: {
      if (rec.slot_id >= page->payloads.size()) {
        return Status::Corruption("update slot out of range");
      }
      // Complete the differential log: fetch the old row from the page,
      // patch it, and reconstruct the delete+insert pair the out-of-place
      // column index needs (§5.3).
      const std::string& slot_image = page->payloads[rec.slot_id];
      IMCI_RETURN_NOT_OK(rec.diff.Apply(slot_image, &prep->new_image));
      Row new_row;
      IMCI_RETURN_NOT_OK(RowCodec::Decode(schema, prep->new_image.data(),
                                          prep->new_image.size(), &new_row));
      if (want_effect) {
        IMCI_RETURN_NOT_OK(RowCodec::Decode(schema, slot_image.data(),
                                            slot_image.size(),
                                            &effect->old_row));
        effect->kind = RowTable::ReplicaApply::Kind::kUpdate;
        effect->tid = rec.tid;
        effect->new_row = new_row;
        effect->image = prep->new_image;
        effect->base_image = slot_image;
      }
      if (user_dml) {
        LogicalDml dml;
        dml.op = LogicalDml::Op::kUpdate;
        dml.table_id = rec.table_id;
        dml.lsn = rec.lsn;
        dml.tid = rec.tid;
        dml.pk = AsInt(new_row[schema.pk_col()]);
        dml.row = std::move(new_row);
        out->push_back(std::move(dml));
      }
      break;
    }
    case RedoType::kDelete: {
      if (rec.slot_id >= page->keys.size() ||
          rec.slot_id >= page->payloads.size()) {
        return Status::Corruption("delete slot out of range");
      }
      const std::string& old_image = page->payloads[rec.slot_id];
      Row old_row;
      IMCI_RETURN_NOT_OK(RowCodec::Decode(schema, old_image.data(),
                                          old_image.size(), &old_row));
      if (want_effect) {
        effect->kind = RowTable::ReplicaApply::Kind::kDelete;
        effect->tid = rec.tid;
        effect->old_row = old_row;
        effect->base_image = old_image;
      }
      if (user_dml) {
        LogicalDml dml;
        dml.op = LogicalDml::Op::kDelete;
        dml.table_id = rec.table_id;
        dml.lsn = rec.lsn;
        dml.tid = rec.tid;
        dml.pk = AsInt(old_row[schema.pk_col()]);
        out->push_back(std::move(dml));
      }
      break;
    }
    default:
      break;
  }
  return Status::OK();
}

Status RedoParser::ApplyPreparedLocked(const RedoRecord& rec,
                                       const PageRef& page,
                                       PreparedApply&& prep) {
  std::unique_lock<std::shared_mutex> latch(page->latch);
  switch (rec.type) {
    case RedoType::kInsert: {
      const int64_t pk = prep.pk;  // decoded (and validated) by Prepare
      uint32_t slot = rec.slot_id;
      if (slot > page->keys.size()) slot = page->keys.size();
      page->keys.insert(page->keys.begin() + slot, pk);
      page->payloads.insert(page->payloads.begin() + slot, rec.after_image);
      page->byte_size += rec.after_image.size() + 12;
      break;
    }
    case RedoType::kUpdate: {
      if (rec.slot_id >= page->payloads.size()) {
        return Status::Corruption("update slot out of range");
      }
      std::string& slot_image = page->payloads[rec.slot_id];
      page->byte_size += prep.new_image.size() - slot_image.size();
      slot_image = std::move(prep.new_image);
      break;
    }
    case RedoType::kDelete: {
      if (rec.slot_id >= page->keys.size()) {
        return Status::Corruption("delete slot out of range");
      }
      page->byte_size -= page->payloads[rec.slot_id].size() + 12;
      page->keys.erase(page->keys.begin() + rec.slot_id);
      page->payloads.erase(page->payloads.begin() + rec.slot_id);
      break;
    }
    default:
      break;
  }
  page->page_lsn = rec.lsn;
  records_applied_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status RedoParser::ApplyRun(
    const std::vector<RedoRecord*>& run,
    std::vector<std::vector<LogicalDml>>* worker_dmls) {
  // Partition by Hash(PageID) mod N: records touching the same page go to
  // the same worker in LSN order — the conflict-free property of Phase#1.
  const int n = parallelism_;
  std::vector<std::vector<RedoRecord*>> shards(n);
  for (RedoRecord* rec : run) {
    shards[Hash64(rec->page_id) % n].push_back(rec);
  }
  size_t base = worker_dmls->size();
  worker_dmls->resize(base + n);
  // A worker stops at its first failure; each shard is in LSN order, so
  // the lowest failing LSN across workers is the run's first failure.
  std::vector<const RedoRecord*> failed(n, nullptr);
  std::vector<Status> causes(n);
  ParallelFor(workers_, n, [&](int w) {
    std::vector<LogicalDml>& out = (*worker_dmls)[base + w];
    for (RedoRecord* rec : shards[w]) {
      causes[w] = ApplyPageRecord(*rec, &out);
      if (!causes[w].ok()) {
        failed[w] = rec;
        return;
      }
    }
  });
  int first = -1;
  for (int w = 0; w < n; ++w) {
    if (failed[w] != nullptr &&
        (first < 0 || failed[w]->lsn < failed[first]->lsn)) {
      first = w;
    }
  }
  return first < 0 ? Status::OK() : ApplyFailure(*failed[first], causes[first]);
}

Status RedoParser::ParseChunk(std::vector<RedoRecord>& records,
                              std::vector<LogicalDml>* dmls,
                              std::vector<Decision>* decisions) {
  std::vector<std::vector<LogicalDml>> worker_dmls;
  std::vector<RedoRecord*> run;
  auto flush_run = [&] {
    if (run.empty()) return Status::OK();
    Status s = ApplyRun(run, &worker_dmls);
    run.clear();
    return s;
  };
  for (RedoRecord& rec : records) {
    switch (rec.type) {
      case RedoType::kSmo:
        // Barrier: an SMO touches several pages, so everything before it
        // must land first, and everything after must see its effect.
        IMCI_RETURN_NOT_OK(flush_run());
        IMCI_RETURN_NOT_OK(ApplySmo(rec));
        break;
      case RedoType::kCommit:
      case RedoType::kAbort: {
        Decision d;
        d.tid = rec.tid;
        d.commit = rec.type == RedoType::kCommit;
        d.vid = rec.commit_vid;
        d.commit_ts_us = rec.commit_ts_us;
        d.lsn = rec.lsn;
        decisions->push_back(d);
        break;
      }
      default:
        run.push_back(&rec);
        break;
    }
  }
  IMCI_RETURN_NOT_OK(flush_run());
  // Phase#1 broke LSN order across workers; restore it before the DMLs are
  // inserted into transaction buffers (§5.4 "sort DMLs according to the LSN
  // of their associated log entries").
  size_t total = 0;
  for (auto& v : worker_dmls) total += v.size();
  dmls->reserve(dmls->size() + total);
  for (auto& v : worker_dmls) {
    for (LogicalDml& d : v) dmls->push_back(std::move(d));
  }
  std::sort(dmls->begin(), dmls->end(),
            [](const LogicalDml& a, const LogicalDml& b) {
              return a.lsn < b.lsn;
            });
  return Status::OK();
}

}  // namespace imci
