#include "redo/redo_record.h"

#include "common/coding.h"

namespace imci {

void RedoRecord::Serialize(std::string* out) const {
  out->push_back(static_cast<char>(type));
  PutFixed64(out, lsn);
  PutFixed64(out, prev_lsn);
  PutFixed64(out, tid);
  PutFixed32(out, table_id);
  PutFixed64(out, page_id);
  PutFixed32(out, slot_id);
  switch (type) {
    case RedoType::kInsert:
      PutLengthPrefixed(out, after_image);
      break;
    case RedoType::kUpdate:
      diff.Serialize(out);
      break;
    case RedoType::kDelete:
      break;
    case RedoType::kSmo:
      PutFixed32(out, static_cast<uint32_t>(page_images.size()));
      for (const auto& [pid, img] : page_images) {
        PutFixed64(out, pid);
        PutLengthPrefixed(out, img);
      }
      break;
    case RedoType::kCommit:
      PutFixed64(out, commit_vid);
      PutFixed64(out, commit_ts_us);
      break;
    case RedoType::kAbort:
      break;
  }
}

Status RedoRecord::Deserialize(const char* data, size_t size,
                               RedoRecord* rec) {
  ByteReader r(data, size);
  uint8_t type;
  IMCI_RETURN_NOT_OK(r.U8(&type));
  if (type > static_cast<uint8_t>(RedoType::kAbort)) {
    return Status::Corruption("redo type");
  }
  rec->type = static_cast<RedoType>(type);
  IMCI_RETURN_NOT_OK(r.U64(&rec->lsn));
  IMCI_RETURN_NOT_OK(r.U64(&rec->prev_lsn));
  IMCI_RETURN_NOT_OK(r.U64(&rec->tid));
  IMCI_RETURN_NOT_OK(r.U32(&rec->table_id));
  IMCI_RETURN_NOT_OK(r.U64(&rec->page_id));
  IMCI_RETURN_NOT_OK(r.U32(&rec->slot_id));
  switch (rec->type) {
    case RedoType::kInsert:
      return r.Str(&rec->after_image);
    case RedoType::kUpdate: {
      std::string_view diff;
      IMCI_RETURN_NOT_OK(r.Bytes(r.remaining(), &diff));
      return RowDiff::Deserialize(diff.data(), diff.size(), &rec->diff);
    }
    case RedoType::kSmo: {
      uint32_t n;
      IMCI_RETURN_NOT_OK(r.Count(12, &n));  // page id + image length
      rec->page_images.clear();
      rec->page_images.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        auto& [pid, img] = rec->page_images.emplace_back();
        IMCI_RETURN_NOT_OK(r.U64(&pid));
        IMCI_RETURN_NOT_OK(r.Str(&img));
      }
      return Status::OK();
    }
    case RedoType::kCommit:
      IMCI_RETURN_NOT_OK(r.U64(&rec->commit_vid));
      return r.U64(&rec->commit_ts_us);
    case RedoType::kDelete:
    case RedoType::kAbort:
      break;
  }
  return Status::OK();
}

size_t RedoRecord::ByteSize() const {
  size_t s = 1 + 8 + 8 + 8 + 4 + 8 + 4;
  switch (type) {
    case RedoType::kInsert: s += 4 + after_image.size(); break;
    case RedoType::kUpdate: s += diff.ByteSize(); break;
    case RedoType::kSmo:
      s += 4;
      for (const auto& [pid, img] : page_images) s += 12 + img.size();
      break;
    case RedoType::kCommit: s += 16; break;
    default: break;
  }
  return s;
}

}  // namespace imci
