#ifndef POLARDB_IMCI_IMCI_COMPRESSION_H_
#define POLARDB_IMCI_IMCI_COMPRESSION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace imci {

/// Pack compression codecs (§4.3): "numerical columns adopt the combination
/// of frame-of-reference, delta-encoding, and bit-packing compression, and
/// string columns use dictionary compression."
///
/// A Partial Pack is transformed into a compressed Pack when it reaches
/// capacity; compression is copy-on-write at the pack level (the caller swaps
/// the frozen pack in atomically).

/// Integer codec: optional delta encoding (chosen when it shrinks the value
/// range), then frame-of-reference (subtract min), then bit-packing to the
/// minimal width.
class IntCodec {
 public:
  static void Encode(const std::vector<int64_t>& values, std::string* out);
  static Status Decode(std::string_view data, std::vector<int64_t>* values);
};

/// Dictionary codec for strings: unique values sorted into a dictionary,
/// codes bit-packed.
class DictCodec {
 public:
  static void Encode(const std::vector<std::string>& values, std::string* out);
  static Status Decode(std::string_view data,
                       std::vector<std::string>* values);
};

/// Doubles are stored verbatim (the paper does not claim FP compression).
class DoubleCodec {
 public:
  static void Encode(const std::vector<double>& values, std::string* out);
  static Status Decode(std::string_view data, std::vector<double>* values);
};

}  // namespace imci

#endif  // POLARDB_IMCI_IMCI_COMPRESSION_H_
