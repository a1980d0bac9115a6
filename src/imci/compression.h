#ifndef POLARDB_IMCI_IMCI_COMPRESSION_H_
#define POLARDB_IMCI_IMCI_COMPRESSION_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/string_pool.h"

namespace imci {

/// Pack compression codecs (§4.3): "numerical columns adopt the combination
/// of frame-of-reference, delta-encoding, and bit-packing compression, and
/// string columns use dictionary compression."
///
/// In-memory packs stay raw lanes; the checkpoint encodes each lane in place
/// when it persists a row group, and decodes it on load.

/// Integer codec: optional delta encoding (chosen when it shrinks the value
/// range), then frame-of-reference (subtract min), then bit-packing to the
/// minimal width.
class IntCodec {
 public:
  static void Encode(std::span<const int64_t> values, std::string* out);
  static Status Decode(std::string_view data, std::vector<int64_t>* values);
};

/// Dictionary codec for strings: unique values sorted into a dictionary,
/// codes bit-packed.
class DictCodec {
 public:
  static void Encode(std::span<const std::string_view> values,
                     std::string* out);
  /// Decodes a lane of exactly `count` values into `pool`, value i's ref to
  /// refs[i]. Corruption when the values do not fit the pool's 32-bit
  /// offsets; a wrong count, a code past the dictionary or a total length
  /// past 4 GiB is Corruption before anything is copied.
  static Status Decode(std::string_view data, uint32_t count,
                       StringPool* pool, StrRef* refs);
};

/// Doubles are stored verbatim (the paper does not claim FP compression).
class DoubleCodec {
 public:
  static void Encode(std::span<const double> values, std::string* out);
  static Status Decode(std::string_view data, std::vector<double>* values);
};

}  // namespace imci

#endif  // POLARDB_IMCI_IMCI_COMPRESSION_H_
