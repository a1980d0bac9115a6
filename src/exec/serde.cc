#include "exec/serde.h"

#include <cstring>

namespace imci {

namespace {

// Value wire tags. Append-only: a new alternative gets a new tag.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

// A corrupt nesting depth must not overflow the decoder's stack.
constexpr size_t kMaxExprDepth = 256;

}  // namespace

// --- Values and rows ---------------------------------------------------

void PutValue(std::string* dst, const Value& v) {
  if (IsNull(v)) {
    dst->push_back(static_cast<char>(kTagNull));
  } else if (std::holds_alternative<int64_t>(v)) {
    dst->push_back(static_cast<char>(kTagInt));
    PutFixed64(dst, static_cast<uint64_t>(AsInt(v)));
  } else if (std::holds_alternative<double>(v)) {
    // Bit-pattern encoding: doubles round-trip exactly, so distributed
    // results stay bit-identical to local execution.
    dst->push_back(static_cast<char>(kTagDouble));
    uint64_t bits;
    double d = AsDouble(v);
    std::memcpy(&bits, &d, 8);
    PutFixed64(dst, bits);
  } else {
    dst->push_back(static_cast<char>(kTagString));
    PutLengthPrefixed(dst, AsString(v));
  }
}

Status GetValue(ByteReader* r, Value* out) {
  uint8_t tag;
  IMCI_RETURN_NOT_OK(r->U8(&tag));
  switch (tag) {
    case kTagNull:
      *out = Value{};
      return Status::OK();
    case kTagInt: {
      int64_t i;
      IMCI_RETURN_NOT_OK(r->I64(&i));
      *out = i;
      return Status::OK();
    }
    case kTagDouble: {
      double d;
      IMCI_RETURN_NOT_OK(r->F64(&d));
      *out = d;
      return Status::OK();
    }
    case kTagString: {
      std::string s;
      IMCI_RETURN_NOT_OK(r->Str(&s));
      *out = std::move(s);
      return Status::OK();
    }
    default:
      return Status::Corruption("serde: bad value tag");
  }
}

void PutRows(std::string* dst, const RowSet& set) {
  PutFixed32(dst, static_cast<uint32_t>(set.TotalRows()));
  for (const Batch& b : set.batches) {
    for (size_t i = 0; i < b.rows; ++i) {
      PutFixed32(dst, static_cast<uint32_t>(b.cols.size()));
      for (const ColumnVector& col : b.cols) PutValue(dst, col.GetValue(i));
    }
  }
}

Status GetRows(ByteReader* r, const std::vector<DataType>& types,
               RowSet* out) {
  uint32_t n;
  IMCI_RETURN_NOT_OK(r->Count(4, &n));  // each row has a width prefix
  *out = RowSet{types, {}};
  Batch b = Batch::Make(types);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t width = 0;
    IMCI_RETURN_NOT_OK(r->U32(&width));
    if (width != types.size()) return Status::Corruption("serde: row width");
    for (ColumnVector& col : b.cols) {
      Value v;
      IMCI_RETURN_NOT_OK(GetValue(r, &v));
      if (!ConstantFits(col.type, v)) {
        return Status::Corruption("serde: value unlike its column");
      }
      col.AppendValue(v);
    }
  }
  b.rows = n;
  if (n > 0) out->batches.push_back(std::move(b));
  return Status::OK();
}

// --- Expressions -------------------------------------------------------

namespace {

Status GetExprRec(ByteReader* r, size_t depth, ExprRef* out);

void PutExprRec(std::string* dst, const ExprRef& e) {
  dst->push_back(static_cast<char>(e->kind));
  dst->push_back(static_cast<char>(e->out_type));
  PutFixed32(dst, static_cast<uint32_t>(e->col));
  PutValue(dst, e->constant);
  PutLengthPrefixed(dst, e->pattern);
  PutFixed32(dst, static_cast<uint32_t>(e->in_set.size()));
  for (const Value& v : e->in_set) PutValue(dst, v);
  PutFixed32(dst, static_cast<uint32_t>(e->substr_start));
  PutFixed32(dst, static_cast<uint32_t>(e->substr_len));
  PutFixed32(dst, static_cast<uint32_t>(e->args.size()));
  for (const ExprRef& a : e->args) PutExprRec(dst, a);
}

Status GetExprRec(ByteReader* r, size_t depth, ExprRef* out) {
  if (depth > kMaxExprDepth) return Status::Corruption("serde: expr depth");
  uint8_t kind, type;
  IMCI_RETURN_NOT_OK(r->U8(&kind));
  IMCI_RETURN_NOT_OK(r->U8(&type));
  if (kind > static_cast<uint8_t>(ExprKind::kIsNull)) {
    return Status::Corruption("serde: bad expr kind");
  }
  if (type > static_cast<uint8_t>(DataType::kDate)) {
    return Status::Corruption("serde: bad expr type");
  }
  auto e = std::make_shared<Expr>();
  e->kind = static_cast<ExprKind>(kind);
  e->out_type = static_cast<DataType>(type);
  int32_t col;
  IMCI_RETURN_NOT_OK(r->I32(&col));
  e->col = col;
  IMCI_RETURN_NOT_OK(GetValue(r, &e->constant));
  IMCI_RETURN_NOT_OK(r->Str(&e->pattern));
  uint32_t nset;
  IMCI_RETURN_NOT_OK(r->Count(1, &nset));
  e->in_set.reserve(nset);
  for (uint32_t i = 0; i < nset; ++i) {
    Value v;
    IMCI_RETURN_NOT_OK(GetValue(r, &v));
    e->in_set.push_back(std::move(v));
  }
  int32_t ss, sl;
  IMCI_RETURN_NOT_OK(r->I32(&ss));
  IMCI_RETURN_NOT_OK(r->I32(&sl));
  e->substr_start = ss;
  e->substr_len = sl;
  uint32_t nargs;
  IMCI_RETURN_NOT_OK(r->Count(1, &nargs));
  e->args.reserve(nargs);
  for (uint32_t i = 0; i < nargs; ++i) {
    ExprRef a;
    IMCI_RETURN_NOT_OK(GetExprRec(r, depth + 1, &a));
    e->args.push_back(std::move(a));
  }
  *out = std::move(e);
  return Status::OK();
}

}  // namespace

void PutExpr(std::string* dst, const ExprRef& e) { PutExprRec(dst, e); }

Status GetExpr(ByteReader* r, ExprRef* out) {
  return GetExprRec(r, 0, out);
}

}  // namespace imci
