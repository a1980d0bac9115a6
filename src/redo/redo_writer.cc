#include "redo/redo_writer.h"

namespace imci {

Status RedoWriter::Append(std::span<RedoRecord> records, Lsn* last) {
  std::vector<std::string> serialized;
  serialized.reserve(records.size());
  // LSN assignment and serialization under the lock keeps LSN order equal
  // to log order, the prerequisite Phase#2 sorting relies on (§5.4).
  std::lock_guard<std::mutex> g(mu_);
  // Stamp from the log's tail, not a private counter: a poison trims the
  // log below a previously returned LSN, and a stale counter would stamp
  // the first post-reopen record with a colliding LSN — the replica's
  // page-LSN idempotence check then silently discards the real record that
  // later lands there. Every redo append serializes through this mutex, so
  // written_lsn() is exactly the last stamped position.
  Lsn lsn = log_->written_lsn();
  for (RedoRecord& r : records) {
    r.lsn = ++lsn;
    std::string buf;
    r.Serialize(&buf);
    serialized.push_back(std::move(buf));
  }
  Status s;
  *last = log_->Append(std::move(serialized), /*durable=*/false, &s);
  return s;
}

Lsn RedoReader::Read(Lsn from, Lsn to, std::vector<RedoRecord>* out,
                     Status* error) const {
  std::vector<std::string> raw;
  const Lsn last = log_->Read(from, to, &raw, error);
  out->reserve(out->size() + raw.size());
  // The log delivers dense LSNs ending at `last`.
  const Lsn first = last - raw.size() + 1;
  for (size_t i = 0; i < raw.size(); ++i) {
    RedoRecord rec;
    Status s = RedoRecord::Deserialize(raw[i].data(), raw[i].size(), &rec);
    if (!s.ok()) {
      if (error != nullptr) {
        *error = Status::Corruption("redo record at LSN " +
                                    std::to_string(first + i) + ": " +
                                    s.ToString());
      }
      return first + i - 1;
    }
    out->push_back(std::move(rec));
  }
  return last;
}

}  // namespace imci
