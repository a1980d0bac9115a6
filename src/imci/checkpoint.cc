#include "imci/checkpoint.h"

#include <charconv>

#include "common/coding.h"
#include "imci/compression.h"

namespace imci {

namespace {

void EncodeVidArray(const std::atomic<Vid>* vids, uint32_t used, Vid csn,
                    Vid overflow_value, std::string* out) {
  std::vector<int64_t> vals(used);
  for (uint32_t i = 0; i < used; ++i) {
    Vid v = vids[i].load(std::memory_order_relaxed);
    // Align visibility with the CSN: anything newer than the checkpoint is
    // marked invalid (inserts) / not-deleted (deletes).
    if (v != kInvalidVid && v != kMaxVid && v > csn) v = overflow_value;
    vals[i] = static_cast<int64_t>(v);
  }
  IntCodec::Encode(vals, out);
}

Status DecodeVidArray(std::string_view blob, std::atomic<Vid>* vids,
                      uint32_t expect) {
  std::vector<int64_t> vals;
  IMCI_RETURN_NOT_OK(IntCodec::Decode(blob, &vals));
  if (vals.size() != expect) return Status::Corruption("vid array size");
  for (uint32_t i = 0; i < expect; ++i) {
    vids[i].store(static_cast<Vid>(vals[i]), std::memory_order_relaxed);
  }
  return Status::OK();
}

std::string CkptDir(uint64_t ckpt_id) {
  return "imci_ckpt/" + std::to_string(ckpt_id) + "/";
}

// Reads CURRENT, the id of the newest complete checkpoint, and that
// checkpoint's MANIFEST. A torn CURRENT write can leave the file empty or
// half a number, which is Corruption rather than an exception.
Status ReadLatest(PolarFs* fs, uint64_t* ckpt_id, std::string* manifest) {
  std::string current;
  IMCI_RETURN_NOT_OK(fs->ReadFile("imci_ckpt/CURRENT", &current));
  const char* end = current.data() + current.size();
  auto [parsed, ec] = std::from_chars(current.data(), end, *ckpt_id);
  if (ec != std::errc() || parsed != end) {
    return Status::Corruption("imci_ckpt/CURRENT: '" + current + "'");
  }
  return fs->ReadFile(CkptDir(*ckpt_id) + "MANIFEST", manifest);
}

}  // namespace

Status ImciCheckpoint::WriteGroup(const ColumnIndex& index, size_t gid,
                                  Vid csn, std::string* out) {
  auto g = index.group(gid);
  if (!g || g->retired()) {
    out->push_back(0);  // absent / reclaimed
    return Status::OK();
  }
  out->push_back(1);
  const uint32_t used = index.GroupUsed(gid);
  PutFixed32(out, used);
  for (int p = 0; p < g->num_packs(); ++p) {
    out->push_back(static_cast<char>(g->pack_type(p)));
    const ColumnPack* pack = const_cast<RowGroup&>(*g).mutable_pack(p);
    PutLengthPrefixed(out, std::string_view(reinterpret_cast<const char*>(
                               pack->nulls.data()),
                           used));
    std::string lane;
    switch (pack->type) {
      case DataType::kInt64:
      case DataType::kInt32:
      case DataType::kDate:
        IntCodec::Encode({pack->ints.data(), used}, &lane);
        break;
      case DataType::kDouble:
        DoubleCodec::Encode({pack->dbls.data(), used}, &lane);
        break;
      case DataType::kString: {
        std::vector<std::string_view> views(used);
        for (uint32_t i = 0; i < used; ++i) views[i] = g->str_at(p, i);
        DictCodec::Encode(views, &lane);
        break;
      }
    }
    PutLengthPrefixed(out, lane);
  }
  std::string ivids, dvids;
  EncodeVidArray(g->raw_insert_vids(), used, csn,
                 static_cast<Vid>(kInvalidVid), &ivids);
  EncodeVidArray(g->raw_delete_vids(), used, csn, kMaxVid, &dvids);
  PutLengthPrefixed(out, ivids);
  PutLengthPrefixed(out, dvids);
  return Status::OK();
}

Status ImciCheckpoint::WriteIndex(const ColumnIndex& index, Vid csn,
                                  std::string* out) {
  PutFixed32(out, index.schema().table_id());
  PutFixed64(out, csn);
  PutFixed64(out, index.next_rid());
  PutFixed32(out, index.options().row_group_size);
  const size_t ngroups = index.num_groups();
  PutFixed64(out, ngroups);
  for (size_t gid = 0; gid < ngroups; ++gid) {
    IMCI_RETURN_NOT_OK(WriteGroup(index, gid, csn, out));
  }
  // RID locator: functional snapshot (§7) — immutable run references.
  auto shards = const_cast<ColumnIndex&>(index).locator()->Snapshot();
  PutFixed32(out, static_cast<uint32_t>(shards.size()));
  for (const auto& runs : shards) {
    PutFixed32(out, static_cast<uint32_t>(runs.size()));
    for (const auto& run : runs) {
      PutFixed32(out, static_cast<uint32_t>(run->entries.size()));
      for (const auto& [pk, rid] : run->entries) {
        PutFixed64(out, static_cast<uint64_t>(pk));
        PutFixed64(out, rid);
      }
    }
  }
  return Status::OK();
}

Status ImciCheckpoint::LoadGroup(ByteReader* r, ColumnIndex* index,
                                 size_t gid) {
  uint8_t present;
  IMCI_RETURN_NOT_OK(r->U8(&present));
  auto g = index->EnsureGroup(gid);
  if (!present) {
    // Reclaimed group: keep an empty (all-invisible) placeholder.
    return Status::OK();
  }
  uint32_t used;
  IMCI_RETURN_NOT_OK(r->U32(&used));
  if (used > g->capacity()) return Status::Corruption("group overfull");
  for (int p = 0; p < g->num_packs(); ++p) {
    uint8_t type;  // validated against the schema implicitly
    IMCI_RETURN_NOT_OK(r->U8(&type));
    std::string_view nulls, lane;
    IMCI_RETURN_NOT_OK(r->Str(&nulls));
    IMCI_RETURN_NOT_OK(r->Str(&lane));
    if (nulls.size() != used) return Status::Corruption("nulls size");
    ColumnPack* pack = g->mutable_pack(p);
    for (uint32_t i = 0; i < used; ++i) {
      pack->nulls[i] = static_cast<uint8_t>(nulls[i]);
    }
    switch (pack->type) {
      case DataType::kInt64:
      case DataType::kInt32:
      case DataType::kDate: {
        std::vector<int64_t> vals;
        IMCI_RETURN_NOT_OK(IntCodec::Decode(lane, &vals));
        if (vals.size() != used) return Status::Corruption("int lane");
        std::copy(vals.begin(), vals.end(), pack->ints.begin());
        break;
      }
      case DataType::kDouble: {
        std::vector<double> vals;
        IMCI_RETURN_NOT_OK(DoubleCodec::Decode(lane, &vals));
        if (vals.size() != used) return Status::Corruption("double lane");
        std::copy(vals.begin(), vals.end(), pack->dbls.begin());
        break;
      }
      case DataType::kString:
        IMCI_RETURN_NOT_OK(
            DictCodec::Decode(lane, used, &pack->pool, pack->refs.data()));
        break;
    }
  }
  std::string_view ivids, dvids;
  IMCI_RETURN_NOT_OK(r->Str(&ivids));
  IMCI_RETURN_NOT_OK(r->Str(&dvids));
  IMCI_RETURN_NOT_OK(DecodeVidArray(ivids, g->raw_insert_vids(), used));
  IMCI_RETURN_NOT_OK(DecodeVidArray(dvids, g->raw_delete_vids(), used));
  g->RebuildMeta(used);
  return Status::OK();
}

Status ImciCheckpoint::LoadIndex(const std::string& data, ColumnIndex* index) {
  ByteReader r(data);
  TableId tid;
  IMCI_RETURN_NOT_OK(r.U32(&tid));
  if (tid != index->schema().table_id()) {
    return Status::InvalidArgument("table mismatch");
  }
  Vid csn;  // recorded in the manifest
  Rid next_rid;
  uint32_t group_size;
  uint64_t ngroups;
  IMCI_RETURN_NOT_OK(r.U64(&csn));
  IMCI_RETURN_NOT_OK(r.U64(&next_rid));
  IMCI_RETURN_NOT_OK(r.U32(&group_size));
  if (group_size != index->options().row_group_size) {
    return Status::InvalidArgument("row group size mismatch");
  }
  IMCI_RETURN_NOT_OK(r.U64(&ngroups));
  if (ngroups > r.remaining()) return Status::Corruption("group count");
  index->next_rid_.store(next_rid, std::memory_order_release);
  for (size_t gid = 0; gid < ngroups; ++gid) {
    IMCI_RETURN_NOT_OK(LoadGroup(&r, index, gid));
  }
  uint32_t nshards;
  IMCI_RETURN_NOT_OK(r.Count(4, &nshards));  // a run count per shard
  std::vector<std::vector<RidLocator::RunRef>> shards(nshards);
  for (auto& runs : shards) {
    uint32_t nruns;
    IMCI_RETURN_NOT_OK(r.Count(4, &nruns));  // an entry count per run
    for (uint32_t i = 0; i < nruns; ++i) {
      uint32_t nentries;
      IMCI_RETURN_NOT_OK(r.Count(16, &nentries));  // pk + rid per entry
      auto run = std::make_shared<RidLocator::Run>();
      run->entries.resize(nentries);
      for (auto& [pk, rid] : run->entries) {
        IMCI_RETURN_NOT_OK(r.I64(&pk));
        IMCI_RETURN_NOT_OK(r.U64(&rid));
      }
      runs.push_back(std::move(run));
    }
  }
  index->locator()->Restore(shards);
  return Status::OK();
}

Status ImciCheckpoint::WriteSnapshot(const ImciStore& store, Vid csn,
                                     Lsn start_lsn, PolarFs* fs,
                                     uint64_t ckpt_id,
                                     const std::string& inflight) {
  const std::string dir = CkptDir(ckpt_id);
  std::string manifest;
  PutFixed64(&manifest, csn);
  PutFixed64(&manifest, start_lsn);
  auto indexes = store.All();
  PutFixed32(&manifest, static_cast<uint32_t>(indexes.size()));
  for (ColumnIndex* idx : indexes) {
    std::string blob;
    IMCI_RETURN_NOT_OK(WriteIndex(*idx, csn, &blob));
    const std::string name = dir + std::to_string(idx->schema().table_id());
    IMCI_RETURN_NOT_OK(fs->WriteFile(name, std::move(blob)));
    PutFixed32(&manifest, idx->schema().table_id());
  }
  IMCI_RETURN_NOT_OK(fs->WriteFile(dir + "TXNS", inflight));
  IMCI_RETURN_NOT_OK(fs->WriteFile(dir + "MANIFEST", std::move(manifest)));
  // Atomically publish: CURRENT names the newest complete checkpoint.
  return fs->WriteFile("imci_ckpt/CURRENT", std::to_string(ckpt_id));
}

Status ImciCheckpoint::ReadLatestManifest(PolarFs* fs, Vid* csn,
                                          Lsn* start_lsn, uint64_t* ckpt_id) {
  uint64_t id;
  std::string manifest;
  IMCI_RETURN_NOT_OK(ReadLatest(fs, &id, &manifest));
  ByteReader r(manifest);
  IMCI_RETURN_NOT_OK(r.U64(csn));
  IMCI_RETURN_NOT_OK(r.U64(start_lsn));
  if (ckpt_id) *ckpt_id = id;
  return Status::OK();
}

Status ImciCheckpoint::LoadLatest(PolarFs* fs, const Catalog& catalog,
                                  ImciStore* store, Vid* csn, Lsn* start_lsn,
                                  uint64_t* ckpt_id, std::string* inflight) {
  uint64_t id;
  std::string manifest;
  IMCI_RETURN_NOT_OK(ReadLatest(fs, &id, &manifest));
  const std::string dir = CkptDir(id);
  ByteReader r(manifest);
  uint32_t ntables;
  IMCI_RETURN_NOT_OK(r.U64(csn));
  IMCI_RETURN_NOT_OK(r.U64(start_lsn));
  IMCI_RETURN_NOT_OK(r.Count(4, &ntables));
  if (ckpt_id) *ckpt_id = id;
  for (uint32_t i = 0; i < ntables; ++i) {
    TableId tid;
    IMCI_RETURN_NOT_OK(r.U32(&tid));
    auto schema = catalog.Get(tid);
    if (!schema) return Status::Corruption("unknown table in manifest");
    ColumnIndex* idx = store->CreateIndex(schema);
    Blob blob;  // shared, not copied: table checkpoints run to tens of MB
    IMCI_RETURN_NOT_OK(fs->ReadFile(dir + std::to_string(tid), &blob));
    IMCI_RETURN_NOT_OK(LoadIndex(*blob, idx));
  }
  if (inflight != nullptr) {
    inflight->clear();
    Status s = fs->ReadFile(dir + "TXNS", inflight);
    // Absent == no in-flight txns; any other failure must not silently
    // drop them (a booting node would surface their mid-transaction page
    // effects as committed).
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  return Status::OK();
}

}  // namespace imci
