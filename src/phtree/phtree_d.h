// Floating-point front-end for the PH-tree (paper Sect. 3.3): doubles are
// stored via an order-preserving conversion to 64-bit unsigned integers, so
// every tree operation (point, window, kNN queries) behaves exactly as it
// would on the original floating point values.
#ifndef PHTREE_PHTREE_PHTREE_D_H_
#define PHTREE_PHTREE_PHTREE_D_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/bits.h"
#include "phtree/cursor.h"
#include "phtree/phtree.h"

namespace phtree {

/// A k-dimensional point with double coordinates.
using PhKeyD = std::vector<double>;

/// Converts a double key to the tree's integer key space.
inline PhKey EncodeKeyD(std::span<const double> key) {
  PhKey out(key.size());
  for (size_t i = 0; i < key.size(); ++i) {
    out[i] = SortableDoubleBits(key[i]);
  }
  return out;
}

/// Converts an integer key back to doubles.
inline PhKeyD DecodeKeyD(std::span<const uint64_t> key) {
  PhKeyD out(key.size());
  for (size_t i = 0; i < key.size(); ++i) {
    out[i] = SortableBitsToDouble(key[i]);
  }
  return out;
}

/// PH-tree over k-dimensional double keys. Thin wrapper around PhTree; all
/// complexity guarantees carry over. -0.0 keys are normalised to 0.0.
class PhTreeD {
 public:
  explicit PhTreeD(uint32_t dim, const PhTreeConfig& config = PhTreeConfig{})
      : tree_(dim, config) {}

  uint32_t dim() const { return tree_.dim(); }
  size_t size() const { return tree_.size(); }
  bool empty() const { return tree_.empty(); }

  /// Inserts `key` -> `value`; false if the key already exists.
  bool Insert(std::span<const double> key, uint64_t value) {
    return tree_.Insert(Encode(key), value);
  }

  bool InsertOrAssign(std::span<const double> key, uint64_t value) {
    return tree_.InsertOrAssign(Encode(key), value);
  }

  std::optional<uint64_t> Find(std::span<const double> key) const {
    return tree_.Find(Encode(key));
  }

  bool Contains(std::span<const double> key) const {
    return tree_.Contains(Encode(key));
  }

  bool Erase(std::span<const double> key) { return tree_.Erase(Encode(key)); }

  void Clear() { tree_.Clear(); }

  /// All entries with min[d] <= key[d] <= max[d] in every dimension.
  std::vector<std::pair<PhKeyD, uint64_t>> QueryWindow(
      std::span<const double> min, std::span<const double> max) const {
    std::vector<std::pair<PhKeyD, uint64_t>> out;
    const PhKey lo = Encode(min);
    const PhKey hi = Encode(max);
    for (TreeCursor it(tree_, lo, hi); it.Valid(); it.Next()) {
      out.emplace_back(DecodeKeyD(it.key()), it.value());
    }
    return out;
  }

  /// Visitor form: `visitor(key, value)` per matching entry, with the
  /// decoded key in a buffer reused across calls (copy it to keep it) —
  /// no result vector, no per-result key allocation.
  void QueryWindow(
      std::span<const double> min, std::span<const double> max,
      const std::function<void(const PhKeyD&, uint64_t)>& visitor) const {
    const PhKey lo = Encode(min);
    const PhKey hi = Encode(max);
    PhKeyD decoded(dim());
    tree_.QueryWindow(lo, hi, [&](const PhKey& key, uint64_t value) {
      for (size_t i = 0; i < decoded.size(); ++i) {
        decoded[i] = SortableBitsToDouble(key[i]);
      }
      visitor(decoded, value);
    });
  }

  size_t CountWindow(std::span<const double> min,
                     std::span<const double> max) const {
    return tree_.CountWindow(Encode(min), Encode(max));
  }

  PhTreeStats ComputeStats() const { return tree_.ComputeStats(); }

  /// Access to the underlying integer tree (e.g. for TreeCursor or
  /// KnnSearch).
  const PhTree& tree() const { return tree_; }
  PhTree& tree() { return tree_; }

 private:
  // One scratch conversion per call; kMaxDims-bounded stack usage.
  static PhKey Encode(std::span<const double> key) { return EncodeKeyD(key); }

  PhTree tree_;
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_PHTREE_D_H_
