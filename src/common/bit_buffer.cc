#include "common/bit_buffer.h"

#include <algorithm>
#include <cstring>

namespace phtree {

void ClearBits(uint64_t* words, uint64_t begin, uint64_t end) {
  assert(begin <= end);
  // Partial head up to the first word boundary, whole words, partial tail.
  while (begin < end && (begin & 63) != 0) {
    const uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(64 - (begin & 63), end - begin));
    WriteBits(words, begin, chunk, 0);
    begin += chunk;
  }
  const uint64_t whole = (end - begin) >> 6;
  if (whole > 0) {
    std::memset(words + (begin >> 6), 0, whole * sizeof(uint64_t));
    begin += whole << 6;
  }
  if (begin < end) {
    WriteBits(words, begin, static_cast<uint32_t>(end - begin), 0);
  }
}

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

void MoveBits(uint64_t* words, uint64_t src_pos, uint64_t dst_pos,
              uint64_t n) {
  if (n == 0 || src_pos == dst_pos) {
    return;
  }
  if (dst_pos < src_pos) {
    // Shift left: process forward.
    CopyBits(words, src_pos, words, dst_pos, n);
    return;
  }
  // Shift right: process 64-bit chunks from the end so sources are read
  // before they can be overwritten.
  uint64_t len = n;
  uint64_t src_end = src_pos + n;
  uint64_t dst_end = dst_pos + n;
  while (len >= 64) {
    src_end -= 64;
    dst_end -= 64;
    len -= 64;
    WriteBits(words, dst_end, 64, ReadBits(words, src_end, 64));
  }
  if (len > 0) {
    WriteBits(words, dst_pos, static_cast<uint32_t>(len),
              ReadBits(words, src_pos, static_cast<uint32_t>(len)));
  }
}

void InsertBits(uint64_t* words, uint64_t size_bits, uint64_t pos,
                uint64_t n) {
  assert(pos <= size_bits);
  if (n == 0) {
    return;
  }
  if ((pos & 63) == 0 && (n & 63) == 0) {
    // Word-aligned fast path (the PH-tree node's 64-bit payload region):
    // whole-word insertion is a single memmove.
    const uint64_t wi = pos >> 6;
    const uint64_t nw = n >> 6;
    std::memmove(words + wi + nw, words + wi,
                 (WordsFor(size_bits) - wi) * sizeof(uint64_t));
    std::memset(words + wi, 0, nw * sizeof(uint64_t));
    return;
  }
  MoveBits(words, pos, pos + n, size_bits - pos);
  ClearBits(words, pos, pos + n);
}

void RemoveBits(uint64_t* words, uint64_t size_bits, uint64_t pos,
                uint64_t n) {
  assert(pos + n <= size_bits);
  if (n == 0) {
    return;
  }
  MoveBits(words, pos + n, pos, size_bits - pos - n);
  ClearBits(words, size_bits - n, size_bits);
}

}  // namespace phtree
