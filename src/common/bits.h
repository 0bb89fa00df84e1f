// Bit-level utilities used throughout the PH-tree and the baseline indexes:
// order-preserving IEEE-754 <-> integer conversion (paper Sect. 3.3),
// hypercube addressing (Sect. 3.2) and z-order interleaving (used by the
// crit-bit baselines, Sect. 4.1).
#ifndef PHTREE_COMMON_BITS_H_
#define PHTREE_COMMON_BITS_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>

namespace phtree {

/// Number of bits per dimension of every stored value ("w" in the paper).
inline constexpr uint32_t kBitWidth = 64;

/// Maximum supported dimensionality. Hypercube addresses must fit into a
/// single 64-bit register (paper Sect. 3.5: "assuming k is smaller than the
/// register width of the CPU").
inline constexpr uint32_t kMaxDims = 63;

/// Returns a mask with the lowest `n` bits set; `n` may be 0..64.
constexpr uint64_t LowMask(uint32_t n) {
  return n >= 64 ? ~uint64_t{0} : ((uint64_t{1} << n) - 1);
}

/// Order-preserving conversion of an IEEE-754 double to an unsigned 64-bit
/// integer: for any doubles f1, f2 (excluding NaN),
/// f1 < f2  <=>  SortableDoubleBits(f1) < SortableDoubleBits(f2) (unsigned).
/// -0.0 is normalised to 0.0, exactly as in the paper's conversion function.
inline uint64_t SortableDoubleBits(double value) {
  if (value == 0.0) {  // catches both +0.0 and -0.0
    value = 0.0;
  }
  uint64_t bits = std::bit_cast<uint64_t>(value);
  if (bits & (uint64_t{1} << 63)) {
    return ~bits;  // negative: flip all bits
  }
  return bits | (uint64_t{1} << 63);  // positive: set the sign bit
}

/// Inverse of SortableDoubleBits.
inline double SortableBitsToDouble(uint64_t bits) {
  if (bits & (uint64_t{1} << 63)) {
    return std::bit_cast<double>(bits & ~(uint64_t{1} << 63));
  }
  return std::bit_cast<double>(~bits);
}

/// The paper's exact conversion function (Sect. 3.3, Java snippet). It
/// preserves order under *signed* 64-bit comparison, matching Java's `long`.
/// Provided for documentation/tests and the Table 4 reproduction; the tree
/// itself uses the unsigned-order-preserving SortableDoubleBits.
inline int64_t PaperDoubleToLong(double value) {
  if (value == 0.0) {
    value = 0.0;
  }
  uint64_t lb = std::bit_cast<uint64_t>(value);
  if (value < 0.0) {
    return static_cast<int64_t>(~lb | (uint64_t{1} << 63));
  }
  return static_cast<int64_t>(lb);
}

/// Inverse of PaperDoubleToLong.
inline double PaperLongToDouble(int64_t value) {
  uint64_t lb = static_cast<uint64_t>(value);
  if (lb & (uint64_t{1} << 63)) {
    // Converted negative: undo `~raw | (1 << 63)` (raw had the sign bit set,
    // so bit 63 of ~raw was 0 before it was forced back to 1).
    return std::bit_cast<double>(~(lb & ~(uint64_t{1} << 63)));
  }
  return std::bit_cast<double>(lb);
}

/// Computes the k-bit hypercube address of `key` at the bit position
/// `postfix_len` (counting from the least significant bit). Dimension 0
/// contributes the most significant address bit, matching the figures in the
/// paper (Fig. 2: address "01" = dim-0 bit 0, dim-1 bit 1).
inline uint64_t HcAddressAt(std::span<const uint64_t> key,
                            uint32_t postfix_len) {
  uint64_t addr = 0;
  for (uint64_t v : key) {
    addr = (addr << 1) | ((v >> postfix_len) & 1u);
  }
  return addr;
}

/// Applies the address bits of `addr` to `key` at bit position `postfix_len`:
/// the inverse of HcAddressAt for that one bit layer.
inline void ApplyHcAddress(uint64_t addr, uint32_t postfix_len,
                           std::span<uint64_t> key) {
  const uint32_t dim = static_cast<uint32_t>(key.size());
  for (uint32_t d = 0; d < dim; ++d) {
    const uint64_t bit = (addr >> (dim - 1 - d)) & 1u;
    key[d] = (key[d] & ~(uint64_t{1} << postfix_len)) | (bit << postfix_len);
  }
}

/// The highest bit position at which any dimension of the equal-dimension
/// keys `a` and `b` differs, or -1 if they are equal. Scanning the
/// z-interleaved address from the top, it is where the keys part: both
/// reach every node whose address bit lies at or above it along one path.
inline int FirstDifferingBit(std::span<const uint64_t> a,
                             std::span<const uint64_t> b) {
  uint64_t agg = 0;
  for (size_t d = 0; d < a.size(); ++d) {
    agg |= a[d] ^ b[d];
  }
  return static_cast<int>(std::bit_width(agg)) - 1;
}

/// Three-way comparison of two equal-dimension keys by their z-interleaved
/// address, the global enumeration order of a PH-tree: negative, zero or
/// positive as `a` is z-before, equal to or z-after `b`. The first
/// differing z-bit lives in the dimension whose XOR has the highest set
/// bit, ties going to the lowest dimension index (HcAddressAt's order);
/// `best < x && best < (best ^ x)` is the branch-free msb(best) < msb(x).
inline int ZOrderCompare(std::span<const uint64_t> a,
                         std::span<const uint64_t> b) {
  assert(a.size() == b.size());
  uint32_t msd = 0;
  uint64_t best = 0;
  for (uint32_t d = 0; d < a.size(); ++d) {
    const uint64_t x = a[d] ^ b[d];
    if (best < x && best < (best ^ x)) {
      msd = d;
      best = x;
    }
  }
  if (best == 0) {
    return 0;
  }
  return a[msd] < b[msd] ? -1 : 1;
}

/// ZOrderCompare(a, b) < 0. Used by the sharded merges, the deterministic
/// kNN tie-break and the reference oracles.
inline bool ZOrderLess(std::span<const uint64_t> a,
                       std::span<const uint64_t> b) {
  return ZOrderCompare(a, b) < 0;
}

/// Interleaves the k w-bit values of `key` into a single z-order (Morton)
/// bit string of k*w bits, most significant bits first: output bit 0 is bit
/// 63 of key[0], output bit 1 is bit 63 of key[1], ... This is the classic
/// round-robin interleaving used to feed multi-dimensional keys to binary
/// PATRICIA tries (paper Sect. 2 / Sect. 4.1). `out` must hold key.size()
/// 64-bit words.
void InterleaveZOrder(std::span<const uint64_t> key, std::span<uint64_t> out);

/// Inverse of InterleaveZOrder.
void DeinterleaveZOrder(std::span<const uint64_t> zcode,
                        std::span<uint64_t> key);

}  // namespace phtree

#endif  // PHTREE_COMMON_BITS_H_
