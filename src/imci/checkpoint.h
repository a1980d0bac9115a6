#ifndef POLARDB_IMCI_IMCI_CHECKPOINT_H_
#define POLARDB_IMCI_IMCI_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "common/schema.h"
#include "imci/column_index.h"
#include "polarfs/polarfs.h"

namespace imci {

/// Column-index checkpointing (§7). The RO leader periodically persists all
/// column indexes to PolarFS under a Checkpoint Sequence Number (CSN); new
/// RO nodes boot by loading the latest checkpoint and replaying the log tail
/// (`start_lsn` onward), which is what makes tens-of-seconds scale-out
/// possible (§8.5).
///
/// The three in-memory structures are handled as the paper prescribes:
///  - Packs are append-only/immutable: serialized as-is (their persistence
///    timing is independent of checkpoints; visibility is VID-controlled).
///  - VID maps: a copy is written with every VID > CSN marked invalid, so
///    the checkpoint's visibility is aligned exactly to the CSN.
///  - RID locator: serialized from an immutable Snapshot() split, so
///    subsequent transactions never stain the checkpoint.
///
/// `start_lsn` is the pipeline's read_lsn at checkpoint time. Transactions
/// still in flight then have already shipped DMLs below start_lsn (CALS),
/// and the checkpoint's page flush makes those records unreplayable for a
/// booting node (page-LSN skip) — so the snapshot also persists the
/// pipeline's in-flight transaction buffers (the TXNS blob), which Boot
/// restores before tailing the log from start_lsn. Replaying from there
/// with the Phase#2 rule "skip transactions with commit VID <= CSN"
/// reproduces the live state exactly.
class ByteReader;

class ImciCheckpoint {
 public:
  /// Serializes one column index at `csn`.
  static Status WriteIndex(const ColumnIndex& index, Vid csn,
                           std::string* out);
  /// Restores one column index (which must be freshly constructed).
  static Status LoadIndex(const std::string& data, ColumnIndex* index);

  /// Writes a full checkpoint (all indexes in `store`) with id `ckpt_id`,
  /// plus a manifest recording csn/start_lsn, an opaque blob of the
  /// pipeline's in-flight transaction buffers (see
  /// ReplicationPipeline::TakeCheckpoint), and updates the CURRENT pointer.
  static Status WriteSnapshot(const ImciStore& store, Vid csn, Lsn start_lsn,
                              PolarFs* fs, uint64_t ckpt_id,
                              const std::string& inflight = {});

  /// Loads the newest checkpoint into `store` (creating indexes from
  /// `catalog`). `inflight` (optional) receives the in-flight-buffer blob
  /// persisted with the snapshot. Returns NotFound when none exists.
  static Status LoadLatest(PolarFs* fs, const Catalog& catalog,
                           ImciStore* store, Vid* csn, Lsn* start_lsn,
                           uint64_t* ckpt_id, std::string* inflight = nullptr);

  /// Reads only the newest checkpoint's manifest header (csn / start_lsn /
  /// id) without loading any index data — the cheap probe log recycling
  /// uses to learn how far the shared redo log may be truncated (§7).
  /// Returns NotFound when no checkpoint exists.
  static Status ReadLatestManifest(PolarFs* fs, Vid* csn, Lsn* start_lsn,
                                   uint64_t* ckpt_id);

 private:
  static Status WriteGroup(const ColumnIndex& index, size_t gid, Vid csn,
                           std::string* out);
  static Status LoadGroup(ByteReader* r, ColumnIndex* index, size_t gid);
};

}  // namespace imci

#endif  // POLARDB_IMCI_IMCI_CHECKPOINT_H_
