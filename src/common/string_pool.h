#ifndef POLARDB_IMCI_COMMON_STRING_POOL_H_
#define POLARDB_IMCI_COMMON_STRING_POOL_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>

namespace imci {

/// A string held in a StringPool: `len` bytes at pool offset `off`.
struct StrRef {
  uint32_t off = 0;
  uint32_t len = 0;
};

/// An append-only byte pool addressed by 32-bit offsets (the
/// TChunkedMemoryPool shape): values are copied in back to back and freed
/// only with the pool. Chunk k spans offsets [256 (2^k - 1), 256 (2^(k+1) -
/// 1)), so the offsets map to 24 chunks of 256 B .. 2 GiB with a fixed
/// directory, and a chunk is allocated only when a value lands in it. A value
/// never straddles two chunks: one that does not fit the rest of the current
/// chunk starts the next chunk large enough for it.
///
/// Chunks never move, so a reader needs no lock: View reads only the chunk
/// a published ref names, and refs are published after their bytes (the
/// owner's release store; the reader's acquire load). Append is externally
/// serialized.
class StringPool {
 public:
  /// Copies `s` into the pool and sets `*ref` to it. False, with the pool
  /// unchanged, when the offset range cannot address `s`.
  bool Append(std::string_view s, StrRef* ref) {
    if (s.empty()) {
      *ref = StrRef{};
      return true;
    }
    uint64_t at = cursor_;
    int k = ChunkOf(at);
    while (k < kChunks && at + s.size() > ChunkStart(k + 1)) {
      at = ChunkStart(++k);
    }
    if (k >= kChunks) return false;
    if (!chunks_[k]) {
      chunks_[k] = std::make_unique_for_overwrite<char[]>(kFirstChunk << k);
    }
    std::memcpy(chunks_[k].get() + (at - ChunkStart(k)), s.data(), s.size());
    cursor_ = at + s.size();
    *ref = StrRef{static_cast<uint32_t>(at), static_cast<uint32_t>(s.size())};
    return true;
  }

  std::string_view View(StrRef ref) const {
    if (ref.len == 0) return {};
    const int k = ChunkOf(ref.off);
    return {chunks_[k].get() + (ref.off - ChunkStart(k)), ref.len};
  }

  /// Bytes held in allocated chunks.
  uint64_t allocated_bytes() const {
    uint64_t n = 0;
    for (int k = 0; k < kChunks; ++k) n += chunks_[k] ? kFirstChunk << k : 0;
    return n;
  }

 private:
  static constexpr int kFirstChunkBits = 8;
  static constexpr uint64_t kFirstChunk = uint64_t{1} << kFirstChunkBits;
  static constexpr int kChunks = 32 - kFirstChunkBits;

  static uint64_t ChunkStart(int k) {
    return ((uint64_t{1} << k) - 1) << kFirstChunkBits;
  }
  static int ChunkOf(uint64_t off) {
    return std::bit_width((off >> kFirstChunkBits) + 1) - 1;
  }

  std::array<std::unique_ptr<char[]>, kChunks> chunks_;
  uint64_t cursor_ = 0;  // next free offset
};

}  // namespace imci

#endif  // POLARDB_IMCI_COMMON_STRING_POOL_H_
