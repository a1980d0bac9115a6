#ifndef POLARDB_IMCI_IMCI_COMPRESSION_H_
#define POLARDB_IMCI_IMCI_COMPRESSION_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

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
  static void Encode(std::span<const std::string> values, std::string* out);
  static Status Decode(std::string_view data,
                       std::vector<std::string>* values);
};

/// Doubles are stored verbatim (the paper does not claim FP compression).
class DoubleCodec {
 public:
  static void Encode(std::span<const double> values, std::string* out);
  static Status Decode(std::string_view data, std::vector<double>* values);
};

}  // namespace imci

#endif  // POLARDB_IMCI_IMCI_COMPRESSION_H_
