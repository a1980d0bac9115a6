#ifndef POLARDB_IMCI_PLAN_FRAGMENT_H_
#define POLARDB_IMCI_PLAN_FRAGMENT_H_

#include <string>
#include <vector>

#include "common/schema.h"
#include "exec/serde.h"
#include "plan/optimizer.h"

namespace imci {

/// Distributed fragment planning: cuts a column-engine logical plan into N
/// subfragments by integer key value ranges, to be executed on N RO nodes
/// and recombined at the coordinator.
///
/// Partitioning is key-class co-partitioning: one set of value ranges
/// restricts every scan whose column joins or groups on the chosen key (a
/// join key pair, a group column below the cut, or a PK when a single scan
/// splits), and scans outside that key class replicate. Joins and
/// sub-aggregates over the key class therefore run on 1/N of their input
/// per fragment instead of in full on every node.
///
/// Partitioning is over key *values*, never physical positions: RID
/// assignment during Phase#2 parallel apply and per-node compaction make
/// row-group layout replica-dependent, so value ranges are the only split
/// that is disjoint and complete on every node. A NULL key belongs to the
/// first (open-low) range. On bulk-loaded (key-ordered) data, Pack min/max
/// metadata on the key pack recovers group-granular skipping, so a
/// value-range fragment still touches ~1/N of the groups.

/// The result of cutting a plan: per-node fragment plans plus the
/// coordinator-side completion plan. The coordinator fills `values_node`
/// with the fragment outputs, one batch per fragment in fragment order
/// (each decoded against `fragment_types`), and executes
/// `final_plan` locally (`final_plan` contains no scans, so it needs no
/// store access).
struct FragmentSet {
  std::vector<LogicalRef> fragments;      // one per key range, independently
                                          // cloned (safe to mutate/serialize)
  std::vector<DataType> fragment_types;   // fragment output schema
  LogicalRef final_plan;                  // completion plan over values_node
  LogicalRef values_node;                 // kValues placeholder for the rows
};

/// Cuts `plan` into up to `nfrags` key-range fragments, choosing the key
/// class that partitions the most scanned rows. Returns NotSupported when
/// the plan cannot be decomposed soundly (COUNT DISTINCT at the cut, bare
/// LIMIT without ORDER BY, no partitionable scan, missing integer range
/// stats); callers fall back to single-node execution, which stays the
/// reference path. `plan` is never modified.
Status CutFragments(const LogicalRef& plan, const Catalog& catalog,
                    const StatsCollector& stats, int nfrags, FragmentSet* out);

/// Output schema of a logical plan (needs the catalog for scan types), and
/// the shape check a decoded plan passes before lowering: child counts, one
/// filter predicate, ordinals in range, CheckColumnScan. A Values leaf is
/// NotSupported, so CutFragments keeps a plan holding one on one node.
Status InferOutputTypes(const LogicalRef& plan, const Catalog& catalog,
                        std::vector<DataType>* out);

/// Deep-copies the node tree (shared subtrees are duplicated; expressions
/// are immutable and stay shared). Fragment cutting clones before setting
/// partition fields so caller plans are never mutated, and so every
/// occurrence of a reused subtree gets its own partitioning decision.
LogicalRef ClonePlan(const LogicalRef& plan);

// --- Plan wire format ---------------------------------------------------

/// Recursive type-tagged LogicalNode codec for FragmentChannel transport.
/// Decoding is bounds-checked; malformed input, and a Values node, yield
/// Status::Corruption.
void PutPlan(std::string* dst, const LogicalRef& plan);
Status GetPlan(ByteReader* r, LogicalRef* out);

}  // namespace imci

#endif  // POLARDB_IMCI_PLAN_FRAGMENT_H_
