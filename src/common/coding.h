#ifndef POLARDB_IMCI_COMMON_CODING_H_
#define POLARDB_IMCI_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace imci {

/// Little-endian fixed-width encoding helpers (RocksDB-style).

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline uint32_t GetFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t GetFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// u32 length prefix, then the bytes; `ByteReader::Str` reads it back.
inline void PutLengthPrefixed(std::string* dst, std::string_view bytes) {
  PutFixed32(dst, static_cast<uint32_t>(bytes.size()));
  dst->append(bytes);
}

/// 64-bit mix hash (SplitMix64 finalizer). Used for lock striping and the
/// 2P-COFFER dispatchers (`Hash(Key) mod N`, `Hash(PageID) mod N`).
inline uint64_t Hash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline uint64_t HashBytes(const char* data, size_t n) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return Hash64(h);
}

/// Appends the hash of everything already in `blob` as a u64 trailer.
inline void PutHashTrailer(std::string* blob) {
  PutFixed64(blob, HashBytes(blob->data(), blob->size()));
}

/// Verifies a blob sealed by PutHashTrailer; `*body` is the blob without
/// its trailer.
inline Status CheckHashTrailer(std::string_view blob, std::string_view* body) {
  if (blob.size() < 8) return Status::Corruption("checksum trailer missing");
  *body = blob.substr(0, blob.size() - 8);
  if (GetFixed64(blob.data() + body->size()) !=
      HashBytes(body->data(), body->size())) {
    return Status::Corruption("checksum trailer mismatch");
  }
  return Status::OK();
}

// The reader sits on per-row and per-record paths. Forcing its calls inline
// keeps it in registers; one out-of-line call would pin it to the stack.
#define IMCI_READER_INLINE [[gnu::always_inline]]

/// Bounds-checked sequential reader over an immutable byte buffer. Every
/// decoder of stored or shipped bytes reads through it, so a short or
/// malformed buffer surfaces as Status::Corruption, never as UB or as an
/// allocation sized by an unchecked count. Each read costs one compare.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : p_(data), end_(data + size) {}
  explicit ByteReader(std::string_view s) : ByteReader(s.data(), s.size()) {}

  bool done() const { return p_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  IMCI_READER_INLINE Status U8(uint8_t* out) {
    if (remaining() < 1) return Truncated();
    *out = static_cast<uint8_t>(*p_++);
    return Status::OK();
  }
  IMCI_READER_INLINE Status U32(uint32_t* out) {
    if (remaining() < 4) return Truncated();
    *out = GetFixed32(p_);
    p_ += 4;
    return Status::OK();
  }
  IMCI_READER_INLINE Status U64(uint64_t* out) {
    if (remaining() < 8) return Truncated();
    *out = GetFixed64(p_);
    p_ += 8;
    return Status::OK();
  }
  IMCI_READER_INLINE Status I32(int32_t* out) {
    uint32_t u;
    IMCI_RETURN_NOT_OK(U32(&u));
    *out = static_cast<int32_t>(u);
    return Status::OK();
  }
  IMCI_READER_INLINE Status I64(int64_t* out) {
    uint64_t u;
    IMCI_RETURN_NOT_OK(U64(&u));
    *out = static_cast<int64_t>(u);
    return Status::OK();
  }
  /// Doubles travel by bit pattern, so they round-trip exactly.
  IMCI_READER_INLINE Status F64(double* out) {
    uint64_t bits;
    IMCI_RETURN_NOT_OK(U64(&bits));
    std::memcpy(out, &bits, 8);
    return Status::OK();
  }

  /// The next `n` bytes, as a view into the buffer.
  IMCI_READER_INLINE Status Bytes(size_t n, std::string_view* out) {
    if (remaining() < n) return Truncated();
    *out = std::string_view(p_, n);
    p_ += n;
    return Status::OK();
  }
  /// A PutLengthPrefixed field.
  IMCI_READER_INLINE Status Str(std::string_view* out) {
    uint32_t len;
    IMCI_RETURN_NOT_OK(U32(&len));
    return Bytes(len, out);
  }
  IMCI_READER_INLINE Status Str(std::string* out) {
    std::string_view v;
    IMCI_RETURN_NOT_OK(Str(&v));
    out->assign(v);
    return Status::OK();
  }

  /// A u32 element count. Every element takes at least `min_elem_bytes`,
  /// so a count the rest of the buffer cannot hold is Corruption: callers
  /// may size allocations from `*n`.
  IMCI_READER_INLINE Status Count(size_t min_elem_bytes, uint32_t* n) {
    IMCI_RETURN_NOT_OK(U32(n));
    if (static_cast<uint64_t>(*n) * min_elem_bytes > remaining()) {
      return Truncated();
    }
    return Status::OK();
  }

 private:
  [[gnu::cold, gnu::noinline]] static Status Truncated() {
    return Status::Corruption("truncated input");
  }

  const char* p_;
  const char* end_;
};

#undef IMCI_READER_INLINE

}  // namespace imci

#endif  // POLARDB_IMCI_COMMON_CODING_H_
