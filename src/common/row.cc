#include "common/row.h"

#include <cstring>

#include "common/coding.h"

namespace imci {

void RowCodec::Encode(const Schema& schema, const Row& row, std::string* out) {
  out->clear();
  const int n = schema.num_columns();
  // Null bitmap.
  const int bitmap_bytes = (n + 7) / 8;
  out->append(bitmap_bytes, '\0');
  for (int i = 0; i < n; ++i) {
    if (IsNull(row[i])) (*out)[i / 8] |= static_cast<char>(1u << (i % 8));
  }
  for (int i = 0; i < n; ++i) {
    if (IsNull(row[i])) continue;
    switch (schema.column(i).type) {
      case DataType::kInt64:
      case DataType::kInt32:
      case DataType::kDate:
        PutFixed64(out, static_cast<uint64_t>(AsInt(row[i])));
        break;
      case DataType::kDouble: {
        double d = AsDouble(row[i]);
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        PutFixed64(out, bits);
        break;
      }
      case DataType::kString:
        PutLengthPrefixed(out, AsString(row[i]));
        break;
    }
  }
}

Status RowCodec::Decode(const Schema& schema, const char* data, size_t size,
                        Row* row) {
  const int n = schema.num_columns();
  ByteReader r(data, size);
  std::string_view nulls;
  IMCI_RETURN_NOT_OK(r.Bytes((n + 7) / 8, &nulls));
  row->assign(n, Value{});
  for (int i = 0; i < n; ++i) {
    if ((nulls[i / 8] >> (i % 8)) & 1) continue;
    switch (schema.column(i).type) {
      case DataType::kInt64:
      case DataType::kInt32:
      case DataType::kDate: {
        int64_t v;
        IMCI_RETURN_NOT_OK(r.I64(&v));
        (*row)[i] = v;
        break;
      }
      case DataType::kDouble: {
        double d;
        IMCI_RETURN_NOT_OK(r.F64(&d));
        (*row)[i] = d;
        break;
      }
      case DataType::kString: {
        std::string_view s;
        IMCI_RETURN_NOT_OK(r.Str(&s));
        (*row)[i] = std::string(s);
        break;
      }
    }
  }
  return Status::OK();
}

Status RowCodec::DecodePk(const Schema& schema, const char* data, size_t size,
                          int64_t* pk) {
  // The PK column is non-nullable; walk lanes up to pk_col.
  const int n = schema.num_columns();
  ByteReader r(data, size);
  std::string_view nulls;
  IMCI_RETURN_NOT_OK(r.Bytes((n + 7) / 8, &nulls));
  for (int i = 0; i < n; ++i) {
    const bool is_pk = (i == schema.pk_col());
    if ((nulls[i / 8] >> (i % 8)) & 1) {
      if (is_pk) return Status::Corruption("null pk");
      continue;
    }
    if (schema.column(i).type == DataType::kString) {
      if (is_pk) return Status::Corruption("string pk unsupported");
      std::string_view skipped;
      IMCI_RETURN_NOT_OK(r.Str(&skipped));
      continue;
    }
    int64_t v;
    IMCI_RETURN_NOT_OK(r.I64(&v));
    if (is_pk) {
      *pk = v;
      return Status::OK();
    }
  }
  return Status::Corruption("pk column not found");
}

RowDiff RowDiff::Compute(const std::string& before, const std::string& after) {
  RowDiff diff;
  diff.new_size = static_cast<uint32_t>(after.size());
  const size_t common = std::min(before.size(), after.size());
  size_t i = 0;
  while (i < common) {
    if (before[i] == after[i]) {
      ++i;
      continue;
    }
    size_t j = i;
    // Extend the mismatching run; tolerate short matching gaps (<4 bytes) to
    // reduce patch-count overhead.
    size_t match_run = 0;
    while (j < common && match_run < 4) {
      if (before[j] == after[j]) {
        ++match_run;
      } else {
        match_run = 0;
      }
      ++j;
    }
    const size_t end = j - match_run;
    diff.patches.push_back(
        {static_cast<uint32_t>(i), after.substr(i, end - i)});
    i = j;
  }
  if (after.size() > common) {
    diff.patches.push_back(
        {static_cast<uint32_t>(common), after.substr(common)});
  }
  return diff;
}

Status RowDiff::Apply(const std::string& before, std::string* after) const {
  after->assign(before);
  after->resize(new_size, '\0');
  for (const Patch& p : patches) {
    if (p.offset + p.bytes.size() > after->size()) {
      return Status::Corruption("diff patch out of range");
    }
    after->replace(p.offset, p.bytes.size(), p.bytes);
  }
  return Status::OK();
}

void RowDiff::Serialize(std::string* out) const {
  PutFixed32(out, new_size);
  PutFixed32(out, static_cast<uint32_t>(patches.size()));
  for (const Patch& p : patches) {
    PutFixed32(out, p.offset);
    PutLengthPrefixed(out, p.bytes);
  }
}

Status RowDiff::Deserialize(const char* data, size_t size, RowDiff* diff) {
  ByteReader r(data, size);
  uint32_t n;
  IMCI_RETURN_NOT_OK(r.U32(&diff->new_size));
  IMCI_RETURN_NOT_OK(r.Count(8, &n));  // offset + length per patch
  diff->patches.clear();
  diff->patches.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Patch p;
    IMCI_RETURN_NOT_OK(r.U32(&p.offset));
    IMCI_RETURN_NOT_OK(r.Str(&p.bytes));
    diff->patches.push_back(std::move(p));
  }
  return Status::OK();
}

size_t RowDiff::ByteSize() const {
  size_t s = 8;
  for (const Patch& p : patches) s += 8 + p.bytes.size();
  return s;
}

}  // namespace imci
