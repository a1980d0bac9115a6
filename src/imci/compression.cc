#include "imci/compression.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/coding.h"

namespace imci {

namespace {

int BitsFor(uint64_t range) {
  if (range == 0) return 0;
  return 64 - __builtin_clzll(range);
}

void BitPack(const std::vector<uint64_t>& vals, int bits, std::string* out) {
  uint64_t acc = 0;
  int acc_bits = 0;
  for (uint64_t v : vals) {
    acc |= v << acc_bits;
    acc_bits += bits;
    while (acc_bits >= 8) {
      out->push_back(static_cast<char>(acc & 0xFF));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) out->push_back(static_cast<char>(acc & 0xFF));
}

// Widest code the encoders pack: frame-of-reference and delta lanes fall
// back to raw 8-byte values above 56 bits, and dictionary codes are 32 bits.
constexpr int kMaxPackBits = 56;

// A lane holds one row group's column (or VID array). A bit width of 0
// packs any count into zero bytes, so the buffer alone cannot bound it.
constexpr uint32_t kMaxLaneValues = 1u << 24;

Status LaneCount(ByteReader* r, uint32_t* n) {
  IMCI_RETURN_NOT_OK(r->U32(n));
  return *n <= kMaxLaneValues ? Status::OK()
                              : Status::Corruption("lane count");
}

Status BitUnpack(ByteReader* r, size_t count, int bits,
                 std::vector<uint64_t>* vals) {
  if (bits > kMaxPackBits) return Status::Corruption("bitpack width");
  std::string_view data;
  IMCI_RETURN_NOT_OK(r->Bytes((count * bits + 7) / 8, &data));
  vals->assign(count, 0);
  if (bits == 0) return Status::OK();
  uint64_t acc = 0;
  int acc_bits = 0;
  size_t pos = 0;
  const uint64_t mask = (1ull << bits) - 1;
  for (size_t i = 0; i < count; ++i) {
    while (acc_bits < bits) {
      acc |= static_cast<uint64_t>(static_cast<unsigned char>(data[pos++]))
             << acc_bits;
      acc_bits += 8;
    }
    (*vals)[i] = acc & mask;
    acc >>= bits;
    acc_bits -= bits;
  }
  return Status::OK();
}

}  // namespace

void IntCodec::Encode(std::span<const int64_t> values, std::string* out) {
  const uint32_t n = static_cast<uint32_t>(values.size());
  PutFixed32(out, n);
  if (n == 0) return;
  // All range math is unsigned (mod 2^64): differences of extreme int64
  // values wrap correctly and decode reverses them exactly.
  auto u = [](int64_t v) { return static_cast<uint64_t>(v); };
  // Candidate 1: frame-of-reference on raw values.
  int64_t mn = values[0], mx = values[0];
  for (int64_t v : values) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  const int raw_bits = BitsFor(u(mx) - u(mn));
  // Candidate 2: delta encoding (first value + FOR over deltas).
  uint64_t dmn = 0, dmx = 0;
  if (n > 1) {
    dmn = dmx = u(values[1]) - u(values[0]);
    for (uint32_t i = 2; i < n; ++i) {
      const uint64_t d = u(values[i]) - u(values[i - 1]);
      // Compare as signed deltas for a meaningful min/max window.
      if (static_cast<int64_t>(d) < static_cast<int64_t>(dmn)) dmn = d;
      if (static_cast<int64_t>(d) > static_cast<int64_t>(dmx)) dmx = d;
    }
  }
  const int delta_bits = n > 1 ? BitsFor(dmx - dmn) : 64;
  // Bit widths beyond 56 cannot be streamed through the byte accumulator;
  // fall back to raw 8-byte storage (mode 2).
  const bool use_delta = n > 1 && delta_bits < raw_bits && delta_bits <= 56;
  const bool use_raw = !use_delta && raw_bits > 56;

  out->push_back(use_delta ? 1 : (use_raw ? 2 : 0));
  if (use_delta) {
    PutFixed64(out, u(values[0]));
    PutFixed64(out, dmn);
    out->push_back(static_cast<char>(delta_bits));
    std::vector<uint64_t> packed(n - 1);
    for (uint32_t i = 1; i < n; ++i) {
      packed[i - 1] = (u(values[i]) - u(values[i - 1])) - dmn;
    }
    BitPack(packed, delta_bits, out);
  } else if (use_raw) {
    for (uint32_t i = 0; i < n; ++i) PutFixed64(out, u(values[i]));
  } else {
    PutFixed64(out, u(mn));
    out->push_back(static_cast<char>(raw_bits));
    std::vector<uint64_t> packed(n);
    for (uint32_t i = 0; i < n; ++i) packed[i] = u(values[i]) - u(mn);
    BitPack(packed, raw_bits, out);
  }
}

Status IntCodec::Decode(std::string_view data, std::vector<int64_t>* values) {
  ByteReader r(data);
  uint32_t n;
  IMCI_RETURN_NOT_OK(LaneCount(&r, &n));
  values->clear();
  if (n == 0) return Status::OK();
  uint8_t mode;
  IMCI_RETURN_NOT_OK(r.U8(&mode));
  if (mode == 2) {
    std::string_view raw;
    IMCI_RETURN_NOT_OK(r.Bytes(8ull * n, &raw));
    ByteReader rr(raw);
    values->resize(n);
    for (int64_t& v : *values) IMCI_RETURN_NOT_OK(rr.I64(&v));
    return Status::OK();
  }
  if (mode > 2) return Status::Corruption("intpack mode");
  uint64_t base;
  IMCI_RETURN_NOT_OK(r.U64(&base));
  uint64_t dmn = 0;
  if (mode == 1) IMCI_RETURN_NOT_OK(r.U64(&dmn));
  uint8_t bits;
  IMCI_RETURN_NOT_OK(r.U8(&bits));
  std::vector<uint64_t> packed;
  if (mode == 1) {
    // Delta: the first value, then FOR-packed deltas above `dmn`.
    IMCI_RETURN_NOT_OK(BitUnpack(&r, n - 1, bits, &packed));
    values->resize(n);
    (*values)[0] = static_cast<int64_t>(base);
    for (uint32_t i = 1; i < n; ++i) {
      (*values)[i] = static_cast<int64_t>(
          static_cast<uint64_t>((*values)[i - 1]) + dmn + packed[i - 1]);
    }
  } else {
    IMCI_RETURN_NOT_OK(BitUnpack(&r, n, bits, &packed));
    values->resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      (*values)[i] = static_cast<int64_t>(base + packed[i]);
    }
  }
  return Status::OK();
}

void DictCodec::Encode(std::span<const std::string_view> values,
                       std::string* out) {
  const uint32_t n = static_cast<uint32_t>(values.size());
  PutFixed32(out, n);
  if (n == 0) return;
  std::map<std::string_view, uint32_t> dict;
  for (std::string_view s : values) dict.emplace(s, 0);
  uint32_t next = 0;
  for (auto& [s, code] : dict) code = next++;
  PutFixed32(out, static_cast<uint32_t>(dict.size()));
  for (const auto& [s, code] : dict) PutLengthPrefixed(out, s);
  const int bits = BitsFor(dict.size() > 0 ? dict.size() - 1 : 0);
  out->push_back(static_cast<char>(bits));
  std::vector<uint64_t> codes(n);
  for (uint32_t i = 0; i < n; ++i) codes[i] = dict[values[i]];
  BitPack(codes, bits, out);
}

Status DictCodec::Decode(std::string_view data, uint32_t count,
                         StringPool* pool, StrRef* refs) {
  ByteReader r(data);
  uint32_t n;
  IMCI_RETURN_NOT_OK(r.U32(&n));
  if (n != count) return Status::Corruption("string lane count");
  if (n == 0) return Status::OK();
  uint32_t dict_size;
  IMCI_RETURN_NOT_OK(r.Count(4, &dict_size));  // a length per entry
  std::vector<std::string_view> dict(dict_size);
  for (std::string_view& entry : dict) IMCI_RETURN_NOT_OK(r.Str(&entry));
  uint8_t bits;
  IMCI_RETURN_NOT_OK(r.U8(&bits));
  std::vector<uint64_t> codes;
  IMCI_RETURN_NOT_OK(BitUnpack(&r, n, bits, &codes));
  uint64_t total = 0;
  for (uint64_t code : codes) {
    if (code >= dict_size) return Status::Corruption("dict code");
    total += dict[code].size();
  }
  if (total > UINT32_MAX) return Status::Corruption("string lane length");
  for (uint32_t i = 0; i < n; ++i) {
    if (!pool->Append(dict[codes[i]], &refs[i])) {
      return Status::Corruption("string lane length");
    }
  }
  return Status::OK();
}

void DoubleCodec::Encode(std::span<const double> values, std::string* out) {
  PutFixed32(out, static_cast<uint32_t>(values.size()));
  for (double d : values) {
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    PutFixed64(out, bits);
  }
}

Status DoubleCodec::Decode(std::string_view data,
                           std::vector<double>* values) {
  ByteReader r(data);
  uint32_t n;
  IMCI_RETURN_NOT_OK(r.Count(8, &n));
  values->resize(n);
  for (double& d : *values) IMCI_RETURN_NOT_OK(r.F64(&d));
  return Status::OK();
}

}  // namespace imci
