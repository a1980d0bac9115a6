#include "replication/logical_apply.h"

namespace imci {

Lsn LogicalApplySource::Poll(Lsn from, size_t max_txns,
                             std::vector<LogicalTxn>* out, Status* error) {
  std::vector<std::string> raw;
  const Lsn last = log_->Read(from, from + max_txns, &raw, error);
  // Read skips a recycled prefix (whole-segment truncation), so the first
  // record returned sits just past max(from, truncated) — label LSNs from
  // there, not from `from`.
  DecodeRaw(std::max(from, log_->truncated_lsn()) + 1, raw, out);
  return last;
}

void LogicalApplySource::DecodeRaw(Lsn first_lsn,
                                   const std::vector<std::string>& raw,
                                   std::vector<LogicalTxn>* out) {
  Lsn lsn = first_lsn - 1;
  for (const std::string& data : raw) {
    ++lsn;
    Tid tid = 0;
    Vid vid = 0;
    uint64_t ts = 0;
    std::vector<BinlogWriter::Event> events;
    if (!BinlogWriter::DecodeTxn(data, &tid, &vid, &ts, &events)) continue;
    LogicalTxn txn;
    txn.tid = tid;
    txn.vid = vid;
    txn.commit_ts_us = ts;
    txn.lsn = lsn;
    txn.dmls.reserve(events.size());
    for (BinlogWriter::Event& e : events) {
      LogicalDml dml;
      dml.table_id = e.table_id;
      dml.tid = tid;
      dml.lsn = lsn;
      dml.pk = e.pk;
      switch (e.op) {
        case BinlogWriter::Event::Op::kInsert:
          dml.op = LogicalDml::Op::kInsert;
          break;
        case BinlogWriter::Event::Op::kUpdate:
          dml.op = LogicalDml::Op::kUpdate;
          break;
        case BinlogWriter::Event::Op::kDelete:
          dml.op = LogicalDml::Op::kDelete;
          break;
      }
      if (dml.op != LogicalDml::Op::kDelete) {
        auto schema = catalog_->Get(e.table_id);
        if (!schema) continue;  // table unknown on this node
        if (!RowCodec::Decode(*schema, e.row_image.data(),
                              e.row_image.size(), &dml.row)
                 .ok()) {
          continue;  // corrupt image: drop the event, keep the transaction
        }
      }
      txn.dmls.push_back(std::move(dml));
    }
    out->push_back(std::move(txn));
  }
}

}  // namespace imci
