#ifndef POLARDB_IMCI_REPLICATION_LOGICAL_DML_H_
#define POLARDB_IMCI_REPLICATION_LOGICAL_DML_H_

#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "common/types.h"

namespace imci {

/// A logical DML statement reconstructed from physical REDO by Phase#1
/// (§5.3: "make up logical operations from physical logs"). Updates carry
/// both images because the column index applies them as delete + insert.
struct LogicalDml {
  enum class Op : uint8_t { kInsert, kDelete, kUpdate } op;
  TableId table_id = 0;
  Tid tid = 0;
  Lsn lsn = 0;
  int64_t pk = 0;  // PK of the affected row (from the old image for deletes)
  Row row;         // new image (insert/update)
};

/// Per-transaction buffer on the RO node (§5.1): CALS parses and stores DML
/// statements here *before* the commit decision arrives, so that when the
/// commit log entry is read the DMLs can be replayed immediately.
struct TxnBuffer {
  Tid tid = 0;
  Lsn first_lsn = 0;
  std::vector<LogicalDml> dmls;

  // --- Large-transaction pre-commit state (§5.5) ---------------------------
  /// Ordered residue of pre-committed work: deletes by PK and pre-written
  /// inserts awaiting VID rectification. Replayed in order at commit.
  struct PreOp {
    bool is_delete = false;
    TableId table_id = 0;
    int64_t pk = 0;
    Rid rid = kInvalidRid;  // pre-allocated slot (inserts)
  };
  std::vector<PreOp> pre_ops;
  bool pre_committed = false;
};

/// A unit of Phase#2 work: one row-level operation dispatched by
/// Hash(PK) mod N to a replay worker (Figure 6, right side).
struct ApplyOp {
  enum class Kind : uint8_t { kInsert, kDelete, kUpdate, kRectify } kind;
  TableId table_id = 0;
  int64_t pk = 0;
  Rid rid = kInvalidRid;  // kRectify only
  Vid vid = 0;
  Row row;  // kInsert / kUpdate
};

}  // namespace imci

#endif  // POLARDB_IMCI_REPLICATION_LOGICAL_DML_H_
