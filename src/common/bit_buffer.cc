#include "common/bit_buffer.h"

namespace phtree {

void CopyBits(const uint64_t* src, uint64_t src_pos, uint64_t* dst,
              uint64_t dst_pos, uint64_t n) {
  while (n >= 64) {
    WriteBits(dst, dst_pos, 64, ReadBits(src, src_pos, 64));
    src_pos += 64;
    dst_pos += 64;
    n -= 64;
  }
  if (n > 0) {
    WriteBits(dst, dst_pos, static_cast<uint32_t>(n),
              ReadBits(src, src_pos, static_cast<uint32_t>(n)));
  }
}

}  // namespace phtree
