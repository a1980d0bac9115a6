#include "rowstore/binlog.h"

#include "common/coding.h"

namespace imci {

BinlogWriter::BinlogWriter(LogStore* log) : log_(log) {}

Status BinlogWriter::EnqueueTxn(Tid tid, Vid vid, uint64_t commit_ts_us,
                                const std::vector<Event>& events, Lsn* lsn) {
  std::string buf;
  PutFixed64(&buf, tid);
  PutFixed64(&buf, vid);
  PutFixed64(&buf, commit_ts_us);
  PutFixed32(&buf, static_cast<uint32_t>(events.size()));
  for (const Event& e : events) {
    buf.push_back(static_cast<char>(e.op));
    PutFixed32(&buf, e.table_id);
    PutFixed64(&buf, static_cast<uint64_t>(e.pk));
    PutLengthPrefixed(&buf, e.row_image);
  }
  PutHashTrailer(&buf);
  bytes_.fetch_add(buf.size(), std::memory_order_relaxed);
  txns_.fetch_add(1, std::memory_order_relaxed);
  // The LogStore assigns the sequence number (binlog LSN) under its own
  // mutex, and the transaction layer enqueues under its commit-ordering
  // mutex (MySQL's binlog mutex), so log order equals commit order. The
  // durable flush — the extra fsync the paper blames for the Binlog
  // baseline's OLTP loss — is the caller's SyncTo, outside any ordering
  // mutex, so concurrent commits share it per batch.
  Status s;
  *lsn = log_->Append({std::move(buf)}, /*durable=*/false, &s);
  return s;
}

bool BinlogWriter::DecodeTxn(const std::string& data, Tid* tid, Vid* vid,
                             uint64_t* commit_ts_us,
                             std::vector<Event>* events) {
  // Layout: tid(8) vid(8) ts(8) count(4) events... hash trailer(8).
  auto decode = [&]() -> Status {
    std::string_view body;
    IMCI_RETURN_NOT_OK(CheckHashTrailer(data, &body));
    ByteReader r(body);
    IMCI_RETURN_NOT_OK(r.U64(tid));
    IMCI_RETURN_NOT_OK(r.U64(vid));
    IMCI_RETURN_NOT_OK(r.U64(commit_ts_us));
    uint32_t count;
    IMCI_RETURN_NOT_OK(r.Count(1 + 4 + 8 + 4, &count));
    events->clear();
    events->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      Event& e = events->emplace_back();
      uint8_t op;
      IMCI_RETURN_NOT_OK(r.U8(&op));
      if (op > static_cast<uint8_t>(Event::Op::kDelete)) {
        return Status::Corruption("binlog event op");
      }
      e.op = static_cast<Event::Op>(op);
      IMCI_RETURN_NOT_OK(r.U32(&e.table_id));
      IMCI_RETURN_NOT_OK(r.I64(&e.pk));
      IMCI_RETURN_NOT_OK(r.Str(&e.row_image));
    }
    return r.done() ? Status::OK() : Status::Corruption("binlog trailer");
  };
  return decode().ok();
}

size_t BinlogWriter::Replay(
    LogStore* log,
    const std::function<void(Tid, Vid, const std::vector<Event>&)>& fn) {
  size_t recovered = 0;
  Lsn from = log->truncated_lsn();
  const Lsn to = log->written_lsn();
  while (from < to) {
    std::vector<std::string> raw;
    const Lsn last = log->Read(from, std::min(to, from + 1024), &raw);
    if (last == from) break;
    from = last;
    for (const std::string& data : raw) {
      Tid tid = 0;
      Vid vid = 0;
      uint64_t ts = 0;
      std::vector<Event> events;
      if (!DecodeTxn(data, &tid, &vid, &ts, &events)) return recovered;
      fn(tid, vid, events);
      ++recovered;
    }
  }
  return recovered;
}

}  // namespace imci
