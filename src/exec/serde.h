#ifndef POLARDB_IMCI_EXEC_SERDE_H_
#define POLARDB_IMCI_EXEC_SERDE_H_

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/row.h"
#include "common/status.h"
#include "exec/expr.h"

namespace imci {

/// Byte-oriented serialization for the distributed fragment protocol. The
/// wire format is self-describing (type-tagged values) and little-endian
/// fixed-width, so the in-process FragmentChannel and a future TCP transport
/// share one codec. Decoding reads through ByteReader (common/coding.h): a
/// short or malformed buffer surfaces as Status::Corruption, never UB.

// --- Values and rows ---------------------------------------------------

void PutValue(std::string* dst, const Value& v);
Status GetValue(ByteReader* r, Value* out);

/// Rows travel row-major, each with an explicit column count. Doubles
/// round-trip by bit pattern (exact), which the distributed equivalence
/// gates rely on. GetRows decodes into one batch of `types` (none for no
/// rows): a row of another width, or a value its column cannot hold
/// (ConstantFits), is Corruption.
void PutRows(std::string* dst, const RowSet& set);
Status GetRows(ByteReader* r, const std::vector<DataType>& types, RowSet* out);

// --- Expressions -------------------------------------------------------

/// Recursive type-tagged expression tree codec (covers every ExprKind).
void PutExpr(std::string* dst, const ExprRef& e);
Status GetExpr(ByteReader* r, ExprRef* out);

}  // namespace imci

#endif  // POLARDB_IMCI_EXEC_SERDE_H_
