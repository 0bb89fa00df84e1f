// Packed bit-stream operations. Every PH-tree node serialises its prefix and
// postfix data into such a stream (paper Sect. 3.4, following the "tightly
// packed tries" idea of Germann et al. [9]): values occupy exactly the
// number of bits they need. A stream is never shifted: an edit writes the
// edited node's whole stream into a new block (Node::TryEdit).
//
// The functions here operate on a word span the caller owns: a node's
// stream lives in the same arena block as its header (see arena.h), so the
// stream has no owner, size or capacity of its own. Callers guarantee that
// every addressed bit lies inside their span.
//
// Bit order: bit index 0 is the most significant bit of word 0. A window
// read returns its bits right-aligned in the returned word, i.e., reading n
// bits yields a value < 2^n whose MSB is the first (lowest-index) bit of
// the window. This matches the MSB-first orientation of PH-tree keys.
//
// Streams keep a zero tail: every bit past the stream's length, up to the
// end of its span, is zero, because each stream is written once into a
// zeroed block.
#ifndef PHTREE_COMMON_BIT_BUFFER_H_
#define PHTREE_COMMON_BIT_BUFFER_H_

#include <bit>
#include <cassert>
#include <cstdint>

#include "common/bits.h"
#include "common/simd.h"

namespace phtree {

/// Number of 64-bit words holding `bits` bits.
constexpr uint64_t WordsFor(uint64_t bits) { return (bits + 63) / 64; }

/// Returned by FindNextOne when no further 1-bit exists.
inline constexpr uint64_t kNoBit = ~uint64_t{0};

/// Relaxed atomic load of word `wi`. The read path uses this for every word
/// access so that a concurrent MVCC publication store into an unrelated
/// field of the same word is an atomic/atomic overlap, not a data race; on
/// x86/ARM it compiles to the same plain load.
inline uint64_t LoadWord(const uint64_t* words, uint64_t wi) {
  return __atomic_load_n(&words[wi], __ATOMIC_RELAXED);
}

/// Reads `n` bits (0 <= n <= 64) starting at bit `pos`, right-aligned.
inline uint64_t ReadBits(const uint64_t* words, uint64_t pos, uint32_t n) {
  if (n == 0) {
    return 0;
  }
  const uint64_t wi = pos >> 6;
  const uint32_t off = static_cast<uint32_t>(pos & 63);
  if (off + n <= 64) {
    return (LoadWord(words, wi) >> (64 - off - n)) & LowMask(n);
  }
  const uint32_t n1 = 64 - off;  // bits taken from the first word
  const uint32_t n2 = n - n1;    // bits taken from the second word
  const uint64_t hi = LoadWord(words, wi) & LowMask(n1);
  const uint64_t lo = LoadWord(words, wi + 1) >> (64 - n2);
  return (hi << n2) | lo;
}

/// Returns bit `pos` (0 or 1).
inline uint64_t GetBit(const uint64_t* words, uint64_t pos) {
  return (LoadWord(words, pos >> 6) >> (63 - (pos & 63))) & 1u;
}

/// Writes the low `n` bits of `value` at bit position `pos`.
inline void WriteBits(uint64_t* words, uint64_t pos, uint32_t n,
                      uint64_t value) {
  if (n == 0) {
    return;
  }
  value &= LowMask(n);
  const uint64_t wi = pos >> 6;
  const uint32_t off = static_cast<uint32_t>(pos & 63);
  if (off + n <= 64) {
    const uint32_t shift = 64 - off - n;
    words[wi] = (words[wi] & ~(LowMask(n) << shift)) | (value << shift);
    return;
  }
  const uint32_t n1 = 64 - off;
  const uint32_t n2 = n - n1;
  words[wi] = (words[wi] & ~LowMask(n1)) | (value >> n2);
  words[wi + 1] =
      (words[wi + 1] & LowMask(64 - n2)) | ((value & LowMask(n2)) << (64 - n2));
}

/// Sets bit `pos` to the low bit of `value`.
inline void SetBit(uint64_t* words, uint64_t pos, uint64_t value) {
  WriteBits(words, pos, 1, value & 1u);
}

/// Number of 1-bits in [begin, end). Scans only the touched words.
inline uint64_t CountOnesInRange(const uint64_t* words, uint64_t begin,
                                 uint64_t end) {
  assert(begin <= end);
  if (begin == end) {
    return 0;
  }
  const uint64_t first_word = begin >> 6;
  const uint64_t last_word = (end - 1) >> 6;
  if (first_word == last_word) {
    return static_cast<uint64_t>(std::popcount(
        ReadBits(words, begin, static_cast<uint32_t>(end - begin))));
  }
  uint64_t ones = 0;
  // Partial first word: bits [begin, word boundary).
  const uint32_t head = 64 - static_cast<uint32_t>(begin & 63);
  ones += static_cast<uint64_t>(std::popcount(ReadBits(words, begin, head)));
  // Middle words are whole: a flat word-popcount, routed through the SIMD
  // kernel layer once the span is long enough to amortise the indirect
  // call (large BHC bitmaps); short spans stay in this inline loop.
  if (const uint64_t middle = last_word - (first_word + 1); middle >= 2) {
    ones += simd::CountOnesWords(words + first_word + 1, middle);
  } else {
    for (uint64_t w = first_word + 1; w < last_word; ++w) {
      ones += static_cast<uint64_t>(std::popcount(LoadWord(words, w)));
    }
  }
  // Partial last word: bits [word boundary, end).
  const uint32_t tail = static_cast<uint32_t>(end - (last_word << 6));
  ones += static_cast<uint64_t>(
      std::popcount(ReadBits(words, last_word << 6, tail)));
  return ones;
}

/// Index of the first 1-bit in [pos, end), or kNoBit if none.
inline uint64_t FindNextOne(const uint64_t* words, uint64_t pos,
                            uint64_t end) {
  if (pos >= end) {
    return kNoBit;
  }
  uint64_t wi = pos >> 6;
  const uint64_t last_word = (end - 1) >> 6;
  // Mask away bits before `pos` in the first word (stream bit i lives at
  // word bit 63 - i%64, so earlier stream bits are the higher word bits).
  uint64_t word = LoadWord(words, wi) & LowMask(64 - (pos & 63));
  while (word == 0) {
    if (++wi > last_word) {
      return kNoBit;
    }
    word = LoadWord(words, wi);
  }
  const uint64_t bit =
      (wi << 6) + static_cast<uint64_t>(std::countl_zero(word));
  return bit < end ? bit : kNoBit;
}

/// Copies `n` bits from `src` at `src_pos` to `dst` at `dst_pos`. The two
/// ranges may not overlap.
void CopyBits(const uint64_t* src, uint64_t src_pos, uint64_t* dst,
              uint64_t dst_pos, uint64_t n);

// ---- Atomic field access (MVCC publication points) ------------------------
//
// A mutation publishes a replacement child handle (a 32-bit field) or a
// new payload (a 64-bit field) with exactly one atomic store into the live
// node's stream while lock-free readers traverse it. These helpers operate
// on naturally aligned fields (pos % 32 == 0 resp. pos % 64 == 0) so the
// store is a single machine word write: readers observe either the old or
// the new value, never a torn mix. All other words of a published node are
// immutable while it is reachable, so the relaxed word loads above plus
// these acquire/release field accessors make the whole read path
// data-race-free under TSan and the C++ memory model.

/// Address of the aligned 32-bit half-word holding stream bits
/// [pos, pos+32). Stream bit order is MSB-first within each word, so the
/// field at an even 32-bit offset is the numerically *high* half — which on
/// a little-endian machine is the uint32 at the higher address.
inline uint32_t* Half32(const uint64_t* words, uint64_t pos) {
  assert((pos & 31) == 0);
  auto* halves =
      reinterpret_cast<uint32_t*>(const_cast<uint64_t*>(&words[pos >> 6]));
  const uint64_t upper = (pos & 32) == 0 ? 1 : 0;
  return halves +
         (std::endian::native == std::endian::little ? upper : 1 - upper);
}

/// Atomically reads the aligned 32-bit field at `pos` (acquire).
inline uint32_t AcquireLoad32(const uint64_t* words, uint64_t pos) {
  return __atomic_load_n(Half32(words, pos), __ATOMIC_ACQUIRE);
}

/// Atomically writes the aligned 32-bit field at `pos` (release).
inline void ReleaseStore32(uint64_t* words, uint64_t pos, uint32_t value) {
  __atomic_store_n(Half32(words, pos), value, __ATOMIC_RELEASE);
}

/// Atomically writes the aligned 64-bit field at `pos` (release).
inline void ReleaseStore64(uint64_t* words, uint64_t pos, uint64_t value) {
  assert((pos & 63) == 0);
  __atomic_store_n(&words[pos >> 6], value, __ATOMIC_RELEASE);
}

}  // namespace phtree

#endif  // PHTREE_COMMON_BIT_BUFFER_H_
