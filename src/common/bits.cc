#include "common/bits.h"

namespace phtree {

void InterleaveZOrder(std::span<const uint64_t> key, std::span<uint64_t> out) {
  const uint32_t dim = static_cast<uint32_t>(key.size());
  for (uint64_t& w : out) {
    w = 0;
  }
  // Output bit index i (MSB-first across the word array) receives bit
  // (63 - i / dim) of key[i % dim].
  uint32_t out_bit = 0;
  for (uint32_t level = 0; level < kBitWidth; ++level) {
    for (uint32_t d = 0; d < dim; ++d, ++out_bit) {
      const uint64_t bit = (key[d] >> (63 - level)) & 1u;
      out[out_bit >> 6] |= bit << (63 - (out_bit & 63));
    }
  }
}

void DeinterleaveZOrder(std::span<const uint64_t> zcode,
                        std::span<uint64_t> key) {
  const uint32_t dim = static_cast<uint32_t>(key.size());
  for (uint64_t& v : key) {
    v = 0;
  }
  uint32_t in_bit = 0;
  for (uint32_t level = 0; level < kBitWidth; ++level) {
    for (uint32_t d = 0; d < dim; ++d, ++in_bit) {
      const uint64_t bit = (zcode[in_bit >> 6] >> (63 - (in_bit & 63))) & 1u;
      key[d] |= bit << (63 - level);
    }
  }
}

}  // namespace phtree
